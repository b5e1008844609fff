(** Model-checking summary: per protocol x execution class, the size of
    the explored schedule space and the verdict, checked against the cell
    each protocol claims (crash class against CF, network class against
    NF, nice against full NBAC).

    This is the exhaustive counterpart of {!Robustness}: where the
    fuzzing battery samples schedules by seed, each row here visits every
    schedule of the bounded space (or reports the truncation). The L1
    witnesses fall out mechanically: 2PC loses termination in the crash
    class, 1NBAC and the INBAC ack-undershoot variant lose agreement in
    the network class — each with an engine-replayable counterexample. *)

val default_protocols : string list

val default_classes : Mc_run.exec_class list

type row = {
  outcome : Mc_run.outcome;
  claimed : Props.t;
  ok : bool;
}

val rows :
  ?protocols:string list ->
  ?classes:Mc_run.exec_class list ->
  ?budgets:Mc_limits.budgets ->
  ?symmetry:bool ->
  ?jobs:int ->
  ?visited:Mc_limits.visited_mode ->
  n:int ->
  f:int ->
  unit ->
  row list

val render :
  ?protocols:string list ->
  ?classes:Mc_run.exec_class list ->
  ?budgets:Mc_limits.budgets ->
  ?symmetry:bool ->
  ?jobs:int ->
  ?visited:Mc_limits.visited_mode ->
  n:int ->
  f:int ->
  unit ->
  string

val render_checked :
  ?protocols:string list ->
  ?classes:Mc_run.exec_class list ->
  ?budgets:Mc_limits.budgets ->
  ?symmetry:bool ->
  ?jobs:int ->
  ?visited:Mc_limits.visited_mode ->
  n:int ->
  f:int ->
  unit ->
  string * bool
(** {!render}, plus whether every row is consistent with its claim. *)
