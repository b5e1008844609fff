(** Network delay models.

    A network model assigns a transmission delay (in ticks) to every
    message at the moment it is sent. The paper's execution classes map
    onto models as follows:

    - {e failure-free / crash-failure executions} (a synchronous system):
      every delay is in [\[1, U\]] — see {!exact}, {!jittered};
    - {e nice executions}: no crash, all votes 1, and (for the complexity
      metric) every delay exactly [U] — {!exact};
    - {e network-failure executions}: some delay exceeds [U] — see
      {!eventually_synchronous} (delays bounded only after a global
      stabilization time) and {!adversary} (full control, used to build
      the lower-bound witness executions of Lemmas 1, 3 and 5). *)

type info = {
  src : Pid.t;
  dst : Pid.t;
  layer : Trace.layer;
  sent_at : Sim_time.t;
  seq : int;  (** global send sequence number, for adversaries *)
}

type t

val name : t -> string

val bound : t -> Sim_time.t option
(** A static upper bound on the delays this model can produce, when one is
    known ([None] for {!adversary}). Used by {!Scenario.classify}. *)

val delay :
  t -> Rng.t -> src:Pid.t -> dst:Pid.t -> layer:Trace.layer ->
  sent_at:Sim_time.t -> seq:int -> Sim_time.t
(** The delay assigned to this message, always clamped to [>= 1] tick
    (messages are never instantaneous between distinct processes).
    [seq] is the global send sequence number. Only the models that read
    the message ({!eventually_synchronous}, {!adversary}) get an {!info}
    record built; {!exact} and {!jittered} draw without one. *)

val exact : u:Sim_time.t -> t
(** Every message takes exactly [u]: the canonical synchronous network of
    nice executions. *)

val jittered : u:Sim_time.t -> t
(** Uniform random delay in [\[1, u\]]: still a synchronous system (no
    delay exceeds [U]), exercising races that [exact] cannot. *)

val eventually_synchronous :
  u:Sim_time.t -> gst:Sim_time.t -> max_early_delay:Sim_time.t -> t
(** Messages sent before [gst] suffer an arbitrary (seeded-random) delay in
    [\[1, max_early_delay\]] — typically well beyond [u] — while messages
    sent at or after [gst] take at most [u]. This is the paper's
    eventually-synchronous system. *)

val adversary : name:string -> (info -> Sim_time.t) -> t
(** Full adversarial control: [fn info] is the delay of each message.
    Used to reconstruct the proofs' crafted executions. *)

val pp : Format.formatter -> t -> unit
