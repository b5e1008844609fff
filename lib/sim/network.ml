type info = {
  src : Pid.t;
  dst : Pid.t;
  layer : Trace.layer;
  sent_at : Sim_time.t;
  seq : int;
}

(* Exact and jittered delays read nothing of the message, so they draw
   without an [info] record; only the models that read one get it. *)
type model =
  | Exact of Sim_time.t
  | Jittered of Sim_time.t
  | Reads_info of (Rng.t -> info -> Sim_time.t)

type t = { name : string; bound : Sim_time.t option; model : model }

let name t = t.name
let bound t = t.bound

let delay t rng ~src ~dst ~layer ~sent_at ~seq =
  Int.max 1
    (match t.model with
    | Exact u -> u
    | Jittered u -> Rng.int_in rng ~lo:1 ~hi:u
    | Reads_info fn -> fn rng { src; dst; layer; sent_at; seq })

let exact ~u =
  { name = Printf.sprintf "exact(U=%d)" u; bound = Some u; model = Exact u }

let jittered ~u =
  { name = Printf.sprintf "jittered(U=%d)" u; bound = Some u; model = Jittered u }

let eventually_synchronous ~u ~gst ~max_early_delay =
  if max_early_delay < 1 then
    invalid_arg "Network.eventually_synchronous: max_early_delay must be >= 1";
  {
    name = Printf.sprintf "eventually-synchronous(U=%d,GST=%d)" u gst;
    bound = Some (Int.max u max_early_delay);
    model =
      Reads_info
        (fun rng info ->
          if info.sent_at >= gst then Rng.int_in rng ~lo:1 ~hi:u
          else Rng.int_in rng ~lo:1 ~hi:max_early_delay);
  }

let adversary ~name fn = { name; bound = None; model = Reads_info (fun _ info -> fn info) }
let pp ppf t = Format.pp_print_string ppf t.name
