(** Execution traces.

    The engine appends an entry for every observable event of an execution:
    proposals, message sends and deliveries, timeouts, guard firings,
    decisions, crashes and protocol-level notes (e.g. INBAC phase
    transitions, used to regenerate the paper's Figure 1). Traces are the
    single source of truth for the complexity metrics and the property
    checkers. *)

type layer =
  | Commit_layer  (** a message of the atomic commit protocol itself *)
  | Consensus_layer  (** a message of the underlying consensus service *)

type entry =
  | Propose of { at : Sim_time.t; pid : Pid.t; vote : Vote.t }
  | Send of {
      at : Sim_time.t;
      src : Pid.t;
      dst : Pid.t;
      layer : layer;
      tag : string;  (** human-readable message constructor, e.g. "[V,1]" *)
      deliver_at : Sim_time.t;
    }
  | Deliver of {
      at : Sim_time.t;
      src : Pid.t;
      dst : Pid.t;
      layer : layer;
      tag : string;
      sent_at : Sim_time.t;
    }
  | Discard of { at : Sim_time.t; dst : Pid.t; tag : string }
      (** arrival at a crashed process: received by no one *)
  | Timeout of { at : Sim_time.t; pid : Pid.t; timer : string }
  | Guard of { at : Sim_time.t; pid : Pid.t; guard : string }
  | Decide of { at : Sim_time.t; pid : Pid.t; decision : Vote.decision }
  | Crash of { at : Sim_time.t; pid : Pid.t }
  | Note of { at : Sim_time.t; pid : Pid.t; label : string; value : string }

type t

val create : unit -> t
val add : t -> entry -> unit
val entries : t -> entry list
(** In chronological (append) order. *)

val length : t -> int
val time_of : entry -> Sim_time.t
val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit

val decisions : t -> (Pid.t * Sim_time.t * Vote.decision) list
(** All [Decide] entries, in order. *)

val crashes : t -> (Pid.t * Sim_time.t) list
val proposals : t -> (Pid.t * Vote.t) list

val network_sends : ?layer:layer -> t -> entry list
(** [Send] entries with [src <> dst] (self-addressed messages are not
    "exchanged among the n processes" per the paper's footnote 10),
    restricted to [layer] when given, and only those actually emitted
    (the engine never records sends by crashed processes). *)

val notes : ?label:string -> t -> (Sim_time.t * Pid.t * string * string) list

type snapshot
(** An O(1) capture of a trace prefix (the entry list is persistent). *)

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
(** Rewind the trace to the captured prefix, dropping entries added since.
    Used by machine snapshots to backtrack a shared execution context. *)

