let default_protocols =
  [
    "inbac"; "inbac-fast-abort"; "inbac-undershoot"; "1nbac"; "2pc";
    "2pc-classic"; "3pc"; "(n-1+f)nbac"; "(2n-2)nbac"; "(2n-2+f)nbac";
  ]

let default_classes = Mc_run.[ Nice; Crash; Network ]

type row = {
  outcome : Mc_run.outcome;
  claimed : Props.t;  (** what the protocol's cell claims for this class *)
  ok : bool;
}

(* Which claimed property a model-checking violation refutes. *)
let claims_property (p : Props.t) = function
  | Mc_replay.Agreement -> p.Props.a
  | Mc_replay.Validity -> p.Props.v
  | Mc_replay.Termination -> p.Props.t

let claimed_for_class (cell : Props.cell) = function
  | Mc_run.Nice -> Props.avt  (* failure-free executions must solve NBAC *)
  | Mc_run.Crash -> cell.Props.cf
  | Mc_run.Network | Mc_run.All -> cell.Props.nf

(* A violation refutes the claim when the violated property is claimed
   for the class (and the engine must confirm the counterexample); a
   clean exploration can only fail to refute — like the fuzzing battery,
   but over EVERY schedule at the bound when the counters say
   "exhausted". *)
let row_ok (o : Mc_run.outcome) claimed =
  match o.Mc_run.violation with
  | None -> true
  | Some v ->
      (not (claims_property claimed v.Mc_replay.property))
      && o.Mc_run.replay_verified = Some true

let rows ?(protocols = default_protocols) ?(classes = default_classes)
    ?budgets ?symmetry ?jobs ?visited ~n ~f () =
  List.concat_map
    (fun protocol ->
      let cell = (Complexity.find_exn protocol).Complexity.cell in
      List.map
        (fun klass ->
          let outcome =
            Mc_run.run ?budgets ?symmetry ?jobs ?visited ~protocol ~n ~f
              ~klass ()
          in
          let claimed = claimed_for_class cell klass in
          { outcome; claimed; ok = row_ok outcome claimed })
        classes)
    protocols

let render_checked ?protocols ?classes ?budgets ?symmetry ?jobs ?visited ~n
    ~f () =
  let rs =
    rows ?protocols ?classes ?budgets ?symmetry ?jobs ?visited ~n ~f ()
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "Model checking at n=%d, f=%d - every schedule of the bounded space\n\
        per execution class (nice: synchronous and failure-free; crash: up\n\
        to f crash injections; network: commit-layer messages may miss\n\
        their synchronous slot). A verdict row is consistent when every\n\
        violation found refutes only properties the protocol's cell does\n\
        not claim for that class, and the engine replays it.\n\n"
       n f);
  (* the default (per-item) header stays byte-identical; shared mode is
     labelled because its counters are jobs-dependent *)
  (match visited with
  | Some Mc_limits.Shared ->
      Buffer.add_string buf
        "Shared visited table: states dedup globally per vote-set group;\n\
         state counts depend on --jobs (verdicts do not).\n\n"
  | Some Mc_limits.Per_item | None -> ());
  let table =
    Ascii.create
      ~header:
        [
          "protocol"; "class"; "states"; "schedules"; "pruned"; "verdict";
          "claimed"; "ok";
        ]
  in
  List.iter
    (fun r ->
      let o = r.outcome in
      let c = o.Mc_run.counters in
      Ascii.add_row table
        [
          o.Mc_run.protocol;
          Mc_run.class_name o.Mc_run.klass;
          string_of_int c.Mc_limits.states;
          string_of_int c.Mc_limits.schedules;
          string_of_int (c.Mc_limits.sleep_skips + c.Mc_limits.dedup_hits);
          Mc_run.verdict_string o;
          Props.to_string r.claimed;
          (if r.ok then "yes" else "NO");
        ])
    rs;
  Buffer.add_string buf (Ascii.render table);
  (Buffer.contents buf, List.for_all (fun r -> r.ok) rs)

let render ?protocols ?classes ?budgets ?symmetry ?jobs ?visited ~n ~f () =
  fst
    (render_checked ?protocols ?classes ?budgets ?symmetry ?jobs ?visited ~n
       ~f ())
