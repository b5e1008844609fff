(* Two representations behind one interface. [Exact] retains every
   sample verbatim (nearest-rank percentiles by selection) and is right
   for bounded runs. [Streaming] is the long-run variant: a fixed array of
   equal-width bins over [0, max] plus an overflow bin, so memory is
   O(bins) however many samples arrive; percentiles come back as the
   upper edge of the covering bin (error bounded by one bin width),
   clamped to the true observed maximum. *)

type exact = { mutable data : float array; mutable len : int }

type streaming = {
  width : float;
  counts : int array;  (* [bins] equal-width bins + 1 overflow bin *)
  mutable n : int;
  mutable sum : float;
  mutable vmax : float;
}

type t = Exact of exact | Streaming of streaming

let create ?(capacity = 1024) () =
  Exact { data = Array.make (Int.max 1 capacity) 0.0; len = 0 }

let streaming ~bins ~max =
  if bins < 1 then invalid_arg "Histogram.streaming: bins < 1";
  if not (max > 0.0) then invalid_arg "Histogram.streaming: max <= 0";
  Streaming
    {
      width = max /. float_of_int bins;
      counts = Array.make (bins + 1) 0;
      n = 0;
      sum = 0.0;
      vmax = Float.neg_infinity;
    }

(* inlined, so a caller's float reaches the buffer or the bin unboxed *)
let[@inline] add t x =
  match t with
  | Exact e ->
      if e.len = Array.length e.data then begin
        let grown = Array.make (2 * e.len) 0.0 in
        Array.blit e.data 0 grown 0 e.len;
        e.data <- grown
      end;
      e.data.(e.len) <- x;
      e.len <- e.len + 1
  | Streaming s ->
      let bins = Array.length s.counts - 1 in
      let i =
        if x <= 0.0 then 0
        else Int.min bins (int_of_float (x /. s.width))
      in
      s.counts.(i) <- s.counts.(i) + 1;
      s.n <- s.n + 1;
      s.sum <- s.sum +. x;
      if x > s.vmax then s.vmax <- x

let count = function Exact e -> e.len | Streaming s -> s.n

(* [Float.compare]'s order (NaN first), inlined so the operands stay
   unboxed *)
let[@inline] float_lt (x : float) y = x < y || (x <> x && y = y)

(* Ascending merge sort of [a.(lo..hi-1)] in place. [Array.sort
   Float.compare] boxes both operands of every comparison; this sort
   compares unboxed and allocates one half-length scratch array. *)
let sort_range (a : float array) lo hi =
  let tmp = Array.make ((hi - lo + 1) / 2) 0.0 in
  let insertion lo hi =
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && float_lt x a.(!j) do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  in
  (* merge the sorted runs [lo, mid) and [mid, hi): the left run moves
     to [tmp] and the output overwrites [a] from [lo], never passing the
     unread part of the right run *)
  let merge lo mid hi =
    let left = mid - lo in
    Array.blit a lo tmp 0 left;
    let i = ref 0 and j = ref mid and k = ref lo in
    while !i < left && !j < hi do
      if float_lt a.(!j) tmp.(!i) then begin
        a.(!k) <- a.(!j);
        incr j
      end
      else begin
        a.(!k) <- tmp.(!i);
        incr i
      end;
      incr k
    done;
    Array.blit tmp !i a !k (left - !i)
  in
  let rec sort lo hi =
    if hi - lo <= 16 then insertion lo hi
    else begin
      let mid = (lo + hi) / 2 in
      sort lo mid;
      sort mid hi;
      if float_lt a.(mid) a.(mid - 1) then merge lo mid hi
    end
  in
  sort lo hi

let[@inline] median3 (x : float) y z =
  if float_lt x y then if float_lt y z then y else if float_lt x z then z else x
  else if float_lt x z then x
  else if float_lt y z then z
  else y

(* Move the element of sorted rank [k] to [a.(k)], given that
   [a.(lo..n-1)] holds exactly the elements of sorted ranks [lo..n-1]:
   afterwards no element of [a.(lo..k-1)] is above [a.(k)] and none of
   [a.(k+1..n-1)] is below it, so a later call may select a higher rank
   from [k]. A quickselect with a three-way partition, which settles a
   run of equal samples (queue depths repeat heavily) in one pass; past
   [2 log2 n] rounds the remaining range is sorted instead, so the worst
   case stays O(n log n). *)
let select (a : float array) lo k =
  let[@inline] swap i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  in
  let rec go lo hi depth =
    if hi - lo <= 16 || depth = 0 then sort_range a lo hi
    else begin
      (* Tukey's ninther: the median of three medians of three, over
         nine evenly spaced elements. A median of the first, middle and
         last elements degenerates on the service's queue-depth series,
         stripping one distinct value per round. *)
      let e = (hi - lo - 1) / 8 in
      let[@inline] m3 i = median3 a.(i) a.(i + e) a.(i + (2 * e)) in
      let pivot = median3 (m3 lo) (m3 (lo + (3 * e))) (m3 (lo + (6 * e))) in
      (* [lo, lt) below the pivot, [lt, i) equal to it, [gt, hi) above *)
      let lt = ref lo and i = ref lo and gt = ref hi in
      while !i < !gt do
        let x = a.(!i) in
        if float_lt x pivot then begin
          swap !lt !i;
          incr lt;
          incr i
        end
        else if float_lt pivot x then begin
          decr gt;
          swap !i !gt
        end
        else incr i
      done;
      if k < !lt then go lo !lt (depth - 1)
      else if k >= !gt then go !gt hi (depth - 1)
    end
  in
  let n = Array.length a in
  let rec log2 m acc = if m <= 1 then acc else log2 (m / 2) (acc + 1) in
  go lo n (2 * log2 (n - lo) 0)

(* the nearest rank for [q] of [n] samples, as an index: the smallest
   sample with at least a [q] fraction of the distribution at or below
   it *)
let rank_index n q =
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  Int.max 0 (Int.min (n - 1) (rank - 1))

let percentile_of_exact e q =
  if e.len = 0 then Float.nan
  else begin
    let a = Array.sub e.data 0 e.len in
    let k = rank_index e.len q in
    select a 0 k;
    a.(k)
  end

(* Nearest rank over the cumulative bin counts: the covering bin's upper
   edge over-reports by at most one bin width; samples past [max] land
   in the overflow bin and report the observed maximum. Cumulative
   counts are monotone in [q], so percentiles come out ordered. *)
let percentile_of_bins s q =
  if s.n = 0 then Float.nan
  else begin
    let rank =
      Int.max 1 (int_of_float (Float.ceil (q *. float_of_int s.n)))
    in
    let bins = Array.length s.counts - 1 in
    let i = ref 0 and cum = ref s.counts.(0) in
    while !cum < rank && !i < bins do
      incr i;
      cum := !cum + s.counts.(!i)
    done;
    if !i >= bins then s.vmax
    else Float.min s.vmax (float_of_int (!i + 1) *. s.width)
  end

let percentile t q =
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Histogram.percentile: q outside [0, 1]";
  match t with
  | Exact e -> percentile_of_exact e q
  | Streaming s -> percentile_of_bins s q

type summary = {
  count : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

let summary t =
  match t with
  | Exact e when e.len = 0 ->
      {
        count = 0;
        mean = Float.nan;
        p50 = Float.nan;
        p95 = Float.nan;
        p99 = Float.nan;
        max = Float.nan;
      }
  | Exact e ->
      let n = e.len in
      let sum = ref 0.0 and vmax = ref e.data.(0) in
      for i = 0 to n - 1 do
        let x = e.data.(i) in
        sum := !sum +. x;
        if float_lt !vmax x then vmax := x
      done;
      (* the three ranks ascend, so each selection starts from the last *)
      let a = Array.sub e.data 0 n in
      let at q lo =
        let k = rank_index n q in
        select a lo k;
        k
      in
      let k50 = at 0.50 0 in
      let k95 = at 0.95 k50 in
      let k99 = at 0.99 k95 in
      {
        count = n;
        mean = !sum /. float_of_int n;
        p50 = a.(k50);
        p95 = a.(k95);
        p99 = a.(k99);
        max = !vmax;
      }
  | Streaming s ->
      {
        count = s.n;
        mean = (if s.n = 0 then Float.nan else s.sum /. float_of_int s.n);
        p50 = percentile_of_bins s 0.50;
        p95 = percentile_of_bins s 0.95;
        p99 = percentile_of_bins s 0.99;
        max = (if s.n = 0 then Float.nan else s.vmax);
      }

let pp_summary ppf s =
  if s.count = 0 then Format.pp_print_string ppf "no samples"
  else
    Format.fprintf ppf "p50/p95/p99 %.1f/%.1f/%.1f (max %.1f, n=%d)" s.p50
      s.p95 s.p99 s.max s.count
