type spec = {
  batches : int;
  batch_size : int;
  keys : int;
  hot_keys : int;
  hot_fraction : float;
  zipf_s : float option;
  reads_per_txn : int;
  writes_per_txn : int;
  crash_probability : float;
  seed : int;
}

let default =
  {
    batches = 20;
    batch_size = 4;
    keys = 64;
    hot_keys = 4;
    hot_fraction = 0.5;
    zipf_s = None;
    reads_per_txn = 2;
    writes_per_txn = 2;
    crash_probability = 0.0;
    seed = 7;
  }

type stats = {
  transactions : int;
  committed : int;
  aborted : int;
  blocked : int;
  abort_rate : float;
  total_messages : int;
  messages_per_commit : float;
  mean_commit_delays : float;
  p50_commit_delays : float;
  p95_commit_delays : float;
  p99_commit_delays : float;
  minor_words_per_txn : float;
  atomicity_ok : bool;
}

module Zipf = struct
  (* [cdf] is empty at s = 0: pow(x, 0) = 1 and sums of 1.0 are exact, so
     the CDF there is exactly fl((i+1)/keys) and needs no table. Above 0,
     [guide] cuts [0, 1) into nb equal buckets, nb a power of two: entry
     b < nb is the first rank whose CDF value is not below b/nb, and entry
     nb the last rank. *)
  type t = { keys : int; s : float; cdf : float array; guide : int array }

  (* the least power of two from 2 up that is at least twice [keys], or
     4096 *)
  let rec buckets nb keys =
    if nb >= 4096 || nb >= 2 * keys then nb else buckets (2 * nb) keys

  let guide_of cdf =
    let keys = Array.length cdf in
    let nb = buckets 2 keys in
    let guide = Array.make (nb + 1) (keys - 1) in
    let i = ref 0 in
    for b = 0 to nb - 1 do
      (* stops by the last rank, whose CDF value is 1 *)
      let edge = float_of_int b /. float_of_int nb in
      while cdf.(!i) < edge do
        incr i
      done;
      guide.(b) <- !i
    done;
    guide

  let make ~keys ~s =
    if keys < 1 then invalid_arg "Workload.Zipf.make: keys < 1";
    let s = if Float.is_nan s || s < 0.0 then 0.0 else s in
    if s = 0.0 then { keys; s; cdf = [||]; guide = [||] }
    else begin
      let cdf = Array.make keys 0.0 in
      let acc = ref 0.0 in
      for i = 0 to keys - 1 do
        acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
        cdf.(i) <- !acc
      done;
      let total = !acc in
      for i = 0 to keys - 1 do
        cdf.(i) <- cdf.(i) /. total
      done;
      cdf.(keys - 1) <- 1.0;
      { keys; s; cdf; guide = guide_of cdf }
    end

  let uniform ~keys = make ~keys ~s:0.0
  let keys t = t.keys
  let s t = t.s
  let closed_form t = Array.length t.cdf = 0
  let uniform_cdf t i = float_of_int (i + 1) /. float_of_int t.keys

  let mass_top t h =
    if h <= 0 then 0.0
    else if h >= t.keys then 1.0
    else if closed_form t then uniform_cdf t (h - 1)
    else t.cdf.(h - 1)

  (* The legacy knob: "the hot_keys most popular keys receive
     hot_fraction of the accesses" translated into the unique Zipf
     exponent with that top-h mass (bisection; the mass is monotone in
     s). Requests at or below the uniform mass h/K clamp to s = 0. *)
  let of_hot ~keys ~hot_keys ~hot_fraction =
    if keys < 1 then invalid_arg "Workload.Zipf.of_hot: keys < 1";
    let h = Int.max 0 (Int.min hot_keys keys) in
    let target = Float.min hot_fraction 0.9999 in
    if h = 0 || h = keys || target <= float_of_int h /. float_of_int keys
    then uniform ~keys
    else begin
      let rec bisect lo hi k =
        if k = 0 then 0.5 *. (lo +. hi)
        else
          let mid = 0.5 *. (lo +. hi) in
          if mass_top (make ~keys ~s:mid) h < target then bisect mid hi (k - 1)
          else bisect lo mid (k - 1)
      in
      make ~keys ~s:(bisect 0.0 32.0 48)
    end

  (* The smallest rank whose CDF value is not below [r] (the last rank
     when there is none). At s = 0 the exact quotient puts it at
     ceil(r * keys) - 1; the walks correct that guess for rounding, one
     step at most in either direction for r in [0, 1). Above 0, r's
     bucket b = floor(r * nb) is exact (nb is a power of two), so
     b/nb <= r < (b+1)/nb and the rank lies between guide entries b and
     b + 1: a binary search between them. *)
  let[@inline] rank t r =
    if closed_form t then begin
      let last = t.keys - 1 in
      let guess = int_of_float (Float.ceil (r *. float_of_int t.keys)) - 1 in
      let i = ref (Int.max 0 (Int.min last guess)) in
      while !i > 0 && not (uniform_cdf t (!i - 1) < r) do
        decr i
      done;
      while !i < last && uniform_cdf t !i < r do
        incr i
      done;
      !i
    end
    else begin
      let nb = Array.length t.guide - 1 in
      let b =
        if r >= 1.0 then nb - 1
        else Int.max 0 (int_of_float (r *. float_of_int nb))
      in
      let lo = ref t.guide.(b) and hi = ref t.guide.(b + 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if t.cdf.(mid) < r then lo := mid + 1 else hi := mid
      done;
      !lo
    end

  let index t rng = rank t (Rng.float rng)

  let pick t rng = Printf.sprintf "k%d" (index t rng)
end

let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Rng.int rng ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let distinct_keys ~dist ~count rng =
  let keys = Zipf.keys dist in
  let count = Int.max 0 (Int.min count keys) in
  let picked =
    if count = keys then List.init keys (fun i -> Printf.sprintf "k%d" i)
    else begin
      (* Rejection sampling against the popularity distribution, with a
         drawn-attempts budget: when [count] approaches [keys] under heavy
         skew, the rare tail keys would make pure rejection effectively
         non-terminating, so the remainder fills deterministically with
         the most popular unused ranks. *)
      let attempts = ref ((16 * count) + 64) in
      let rec go left acc =
        if left = 0 then acc
        else if !attempts = 0 then begin
          let rec fill i left acc =
            if left = 0 then acc
            else
              let key = Printf.sprintf "k%d" i in
              if List.mem key acc then fill (i + 1) left acc
              else fill (i + 1) (left - 1) (key :: acc)
          in
          fill 0 left acc
        end
        else begin
          decr attempts;
          let key = Zipf.pick dist rng in
          if List.mem key acc then go left acc else go (left - 1) (key :: acc)
        end
      in
      go count []
    end
  in
  (* Callers split the result into read and write sets positionally, so
     the order must not correlate with popularity — under heavy skew the
     draws come back popularity-sorted, which would systematically aim
     reads at the tail and writes at the head and erase read-write
     conflicts. A shuffle makes the split independent of rank. *)
  let arr = Array.of_list picked in
  shuffle rng arr;
  Array.to_list arr

let dist_of_spec spec =
  match spec.zipf_s with
  | Some s -> Zipf.make ~keys:spec.keys ~s
  | None ->
      Zipf.of_hot ~keys:spec.keys ~hot_keys:spec.hot_keys
        ~hot_fraction:spec.hot_fraction

let generate_txn spec ~dist rng ~id =
  let touched =
    distinct_keys ~dist ~count:(spec.reads_per_txn + spec.writes_per_txn) rng
  in
  let rec split k = function
    | rest when k = 0 -> ([], rest)
    | [] -> ([], [])
    | x :: rest ->
        let reads, writes = split (k - 1) rest in
        (x :: reads, writes)
  in
  let read_keys, write_keys = split spec.reads_per_txn touched in
  Txn.make ~id
    ~reads:(List.map (fun k -> (k, 0)) read_keys)
    ~writes:
      (List.map
         (fun k -> (k, Printf.sprintf "%s@%s" id k))
         write_keys)
    ()

let run db spec =
  let rng = Rng.create spec.seed in
  let dist = dist_of_spec spec in
  let committed = ref 0 and aborted = ref 0 and blocked = ref 0 in
  let total_messages = ref 0 in
  let commit_delays = Histogram.create () in
  let atomicity_ok = ref true in
  let gc_words0 = Gc.minor_words () in
  for b = 0 to spec.batches - 1 do
    let txns =
      List.init spec.batch_size (fun i ->
          generate_txn spec ~dist rng ~id:(Printf.sprintf "b%d-t%d" b i))
    in
    let crashes =
      if Rng.float rng < spec.crash_probability then
        [
          ( Pid.of_index (Rng.int rng ~bound:(Txn_system.size db)),
            Scenario.Before (Rng.int rng ~bound:(3 * Sim_time.default_u)) );
        ]
      else []
    in
    let outcomes = Txn_system.submit_batch ~crashes db txns in
    List.iter
      (fun (o : Txn_system.outcome) ->
        if not o.Txn_system.atomic then atomicity_ok := false;
        total_messages := !total_messages + Report.total_messages o.Txn_system.report;
        match o.Txn_system.decision with
        | Txn_system.Committed ->
            incr committed;
            (match Report.delays_to_last_decision o.Txn_system.report with
            | Some d -> Histogram.add commit_delays d
            | None -> ())
        | Txn_system.Aborted -> incr aborted
        | Txn_system.Blocked -> incr blocked)
      outcomes
  done;
  let transactions = spec.batches * spec.batch_size in
  let minor_words = Gc.minor_words () -. gc_words0 in
  let delays = Histogram.summary commit_delays in
  {
    transactions;
    committed = !committed;
    aborted = !aborted;
    blocked = !blocked;
    abort_rate = float_of_int !aborted /. float_of_int transactions;
    total_messages = !total_messages;
    messages_per_commit =
      (if !committed = 0 then Float.nan
       else float_of_int !total_messages /. float_of_int !committed);
    mean_commit_delays = delays.Histogram.mean;
    p50_commit_delays = delays.Histogram.p50;
    p95_commit_delays = delays.Histogram.p95;
    p99_commit_delays = delays.Histogram.p99;
    minor_words_per_txn = minor_words /. float_of_int (Int.max 1 transactions);
    atomicity_ok = !atomicity_ok;
  }

let contention_sweep ~protocol ~n ~f ~hot_fractions =
  List.map
    (fun hot_fraction ->
      let db = Txn_system.create ~n ~f ~protocol () in
      (hot_fraction, run db { default with hot_fraction }))
    hot_fractions

let protocol_comparison ?jobs ~protocols ~n ~f spec =
  (* each protocol gets its own Txn_system, so the comparison columns are
     independent workload replays — fan them out one domain per protocol *)
  Batch.run ?jobs
    (fun protocol ->
      let db = Txn_system.create ~n ~f ~protocol () in
      (protocol, run db spec))
    protocols

let pp_stats ppf s =
  Format.fprintf ppf
    "%d txns: %d committed, %d aborted (%.0f%%), %d blocked; %d msgs \
     (%.1f/commit), %.1f delays/commit (p50/p95/p99 %.1f/%.1f/%.1f), %.0f \
     minor words/txn%s"
    s.transactions s.committed s.aborted (100.0 *. s.abort_rate) s.blocked
    s.total_messages s.messages_per_commit s.mean_commit_delays
    s.p50_commit_delays s.p95_commit_delays s.p99_commit_delays
    s.minor_words_per_txn
    (if s.atomicity_ok then "" else "; ATOMICITY VIOLATED")
