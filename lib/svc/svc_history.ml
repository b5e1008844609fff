type stats = {
  protocol : string;
  transactions : int;
  committed : int;
  aborted : int;
  local_aborts : int;
  stale_aborts : int;
  requeued : int;
  queued : int;
  parked : int;
  instances : int;
  retries : int;
  elections : int;
  stolen : int;
  mean_batch : float;
  peak_in_flight : int;
  total_messages : int;
  staged_left : int;
  makespan_delays : float;
  latency : Histogram.summary;
  time_parked : Histogram.summary;
  queue_depth : Histogram.summary;
  zipf_s : float;
  goodput : float;
  wall_seconds : float;
  commits_per_sec : float;
  minor_words_per_txn : float;
  atomicity_ok : bool;
  agreement_ok : bool;
}

type t = {
  observe : (string -> Vote.decision -> unit) option;
  txns : int;
  flush_every : int;
  wall_start : float;
  gc_words0 : float;
  mutable issued : int;
  mutable committed : int;
  mutable aborted : int;
  mutable local_aborts : int;
  mutable stale_aborts : int;
  mutable requeued : int;
  mutable queued : int;
  mutable waiting : int;
  mutable instances : int;
  mutable members : int;  (* transactions launched in instances *)
  mutable in_flight : int;
  mutable peak_in_flight : int;
  mutable retries : int;
  mutable elections : int;
  mutable stolen : int;
  mutable messages : int;
  latency : Histogram.t;
  time_parked : Histogram.t;
  queue_depth : Histogram.t;
  mutable agreement_ok : bool;
  mutable atomicity_ok : bool;
}

let u = Sim_time.default_u

let streaming_txns = 16384

let create ?observe ~txns ~clients ~flush_every () =
  let wall_start = Unix.gettimeofday () in
  let gc_words0 = Gc.minor_words () in
  let hist max =
    if txns >= streaming_txns then Histogram.streaming ~bins:4096 ~max
    else Histogram.create ()
  in
  { observe; txns; flush_every; wall_start; gc_words0; issued = 0;
    committed = 0; aborted = 0; local_aborts = 0; stale_aborts = 0;
    requeued = 0; queued = 0; waiting = 0; instances = 0; members = 0;
    in_flight = 0; peak_in_flight = 0; retries = 0; elections = 0; stolen = 0;
    messages = 0; latency = hist 512.0; time_parked = hist 8192.0;
    queue_depth = hist (float_of_int (Int.max 16 clients));
    agreement_ok = true; atomicity_ok = true }

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let progress t now =
  let wall = Unix.gettimeofday () -. t.wall_start in
  let words = Gc.minor_words () -. t.gc_words0 in
  Printf.eprintf
    "[soak] issued %d/%d  committed %d  goodput %.4f  waiting %d  in-flight \
     %d  t=%.0f delays  %.0f commits/s  %.0f minor words/txn\n\
     %!"
    t.issued t.txns t.committed
    (ratio t.committed t.issued)
    t.waiting t.in_flight (Sim_time.delays ~u now)
    (if wall > 0.0 then float_of_int t.committed /. wall else 0.0)
    (words /. float_of_int (Int.max 1 t.issued))

let issued t = t.issued

let issue t now =
  let seq = t.issued in
  t.issued <- seq + 1;
  if t.flush_every > 0 && t.issued mod t.flush_every = 0 then progress t now;
  seq

let sent t =
  let seq = t.messages in
  t.messages <- seq + 1;
  seq

let launched t ~members =
  let seq = t.instances in
  t.instances <- seq + 1;
  t.members <- t.members + members;
  seq

let driven t =
  t.in_flight <- t.in_flight + 1;
  if t.in_flight > t.peak_in_flight then t.peak_in_flight <- t.in_flight

let quiesced t = t.in_flight <- t.in_flight - 1
let in_flight t = t.in_flight
let retried t = t.retries <- t.retries + 1
let elected t = t.elections <- t.elections + 1

let aborted_locally t ~stale =
  t.local_aborts <- t.local_aborts + 1;
  if stale then t.stale_aborts <- t.stale_aborts + 1

let waited t ~first ~at_launch =
  if first then t.queued <- t.queued + 1;
  if at_launch then t.requeued <- t.requeued + 1;
  t.waiting <- t.waiting + 1;
  Histogram.add t.queue_depth (float_of_int t.waiting)

let woken t = t.waiting <- t.waiting - 1

let rec last_decision t ds d0 i last =
  if i = Array.length ds then last
  else
    match ds.(i) with
    | Some (at, d) ->
        if not (Vote.decision_equal d d0) then t.agreement_ok <- false;
        last_decision t ds d0 (i + 1) (Sim_time.max last at)
    | None -> last_decision t ds d0 (i + 1) last

let decided t ~now ~elected ~parked_at ds t0 d0 =
  if elected then t.stolen <- t.stolen + 1;
  (match parked_at with
  | Some p ->
      Histogram.add t.time_parked (Sim_time.delays ~u (Sim_time.( - ) now p))
  | None -> ());
  last_decision t ds d0 0 t0

let finished t d ~decided_at ~txn ~submitted =
  (match d with
  | Vote.Commit ->
      t.committed <- t.committed + 1;
      Histogram.add t.latency
        (Sim_time.delays ~u (Sim_time.( - ) decided_at submitted))
  | Vote.Abort -> t.aborted <- t.aborted + 1);
  match t.observe with
  | Some obs -> obs ("t" ^ string_of_int txn) d
  | None -> ()

let check_staged t ks ~decided ~resolved ~txn shards =
  for j = 0 to Array.length shards - 1 do
    let shard = shards.(j) in
    let expect = (not decided) || not resolved.(shard) in
    if Keyspace.staged ks ~shard ~txn <> expect then t.atomicity_ok <- false
  done

let stats t ~protocol ~zipf_s ~staged_left ~makespan =
  let wall_seconds = Unix.gettimeofday () -. t.wall_start in
  let minor_words = Gc.minor_words () -. t.gc_words0 in
  { protocol; transactions = t.issued; committed = t.committed;
    aborted = t.aborted; local_aborts = t.local_aborts;
    stale_aborts = t.stale_aborts; requeued = t.requeued; queued = t.queued;
    parked = t.issued - t.committed - t.aborted - t.local_aborts;
    instances = t.instances; retries = t.retries; elections = t.elections;
    stolen = t.stolen;
    mean_batch =
      (if t.instances = 0 then Float.nan
       else float_of_int t.members /. float_of_int t.instances);
    peak_in_flight = t.peak_in_flight; total_messages = t.messages;
    staged_left; makespan_delays = Sim_time.delays ~u makespan;
    latency = Histogram.summary t.latency;
    time_parked = Histogram.summary t.time_parked;
    queue_depth = Histogram.summary t.queue_depth;
    zipf_s; goodput = ratio t.committed t.issued; wall_seconds;
    commits_per_sec =
      (if wall_seconds > 0.0 then float_of_int t.committed /. wall_seconds
       else Float.nan);
    minor_words_per_txn =
      (if t.issued = 0 then 0.0 else minor_words /. float_of_int t.issued);
    atomicity_ok = t.atomicity_ok; agreement_ok = t.agreement_ok }

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "@[<v2>%s: %d txns -> %d committed, %d aborted (%d local), %d \
     unresolved@,\
     %d waited, %d stale at launch, %d requeued at launch, goodput %.3f, \
     queue depth %a@,\
     %d instances (+%d retries, %d elections -> %d stolen), mean batch \
     %.2f, peak in-flight %d@,\
     %d msgs, %d staged left, makespan %.1f delays, zipf s=%.3f@,\
     latency %a@,\
     %.0f commits/sec (wall %.3fs), %.0f minor words/txn%s%s@]"
    s.protocol s.transactions s.committed (s.aborted + s.local_aborts)
    s.local_aborts s.parked s.queued s.stale_aborts s.requeued s.goodput
    Histogram.pp_summary s.queue_depth s.instances s.retries s.elections
    s.stolen s.mean_batch s.peak_in_flight s.total_messages
    s.staged_left s.makespan_delays s.zipf_s Histogram.pp_summary s.latency
    s.commits_per_sec s.wall_seconds s.minor_words_per_txn
    (if s.atomicity_ok then "" else "  ATOMICITY VIOLATED")
    (if s.agreement_ok then "" else "  AGREEMENT VIOLATED")

(* The tests pin this per golden arm and assert byte-identity across
   [Batch.run ~jobs] settings. *)
let arm_json_body (s : stats) =
  let num v = if Float.is_nan v then "0.0" else Printf.sprintf "%.6f" v in
  let int = string_of_int in
  let summary (h : Histogram.summary) =
    Printf.sprintf
      "{\"mean\": %s, \"p50\": %s, \"p95\": %s, \"p99\": %s, \"max\": %s}"
      (num h.mean) (num h.p50) (num h.p95) (num h.p99) (num h.max)
  in
  [ ("transactions", int s.transactions); ("committed", int s.committed);
    ("aborted", int s.aborted); ("local_aborts", int s.local_aborts);
    ("stale_aborts", int s.stale_aborts); ("requeued", int s.requeued);
    ("queued", int s.queued);
    ("parked", int s.parked); ("instances", int s.instances);
    ("retries", int s.retries); ("elections", int s.elections);
    ("stolen", int s.stolen); ("mean_batch", num s.mean_batch);
    ("peak_in_flight", int s.peak_in_flight);
    ("messages", int s.total_messages); ("staged_left", int s.staged_left);
    ("abort_rate", num (ratio (s.aborted + s.local_aborts) s.transactions));
    ("goodput", num s.goodput); ("zipf_s", num s.zipf_s);
    ("latency_delays", summary s.latency);
    ("time_parked_delays", summary s.time_parked);
    ("queue_depth", summary s.queue_depth);
    ("atomicity_ok", string_of_bool s.atomicity_ok);
    ("agreement_ok", string_of_bool s.agreement_ok) ]
  |> List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v)
  |> String.concat ", "
