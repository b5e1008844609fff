type layer = Commit_layer | Consensus_layer

type entry =
  | Propose of { at : Sim_time.t; pid : Pid.t; vote : Vote.t }
  | Send of {
      at : Sim_time.t;
      src : Pid.t;
      dst : Pid.t;
      layer : layer;
      tag : string;
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
  | Timeout of { at : Sim_time.t; pid : Pid.t; timer : string }
  | Guard of { at : Sim_time.t; pid : Pid.t; guard : string }
  | Decide of { at : Sim_time.t; pid : Pid.t; decision : Vote.decision }
  | Crash of { at : Sim_time.t; pid : Pid.t }
  | Note of { at : Sim_time.t; pid : Pid.t; label : string; value : string }

type t = { mutable rev_entries : entry list; mutable count : int }

let create () = { rev_entries = []; count = 0 }

let add t e =
  t.rev_entries <- e :: t.rev_entries;
  t.count <- t.count + 1

let entries t = List.rev t.rev_entries
let length t = t.count

type snapshot = entry list * int

let snapshot t = (t.rev_entries, t.count)

let restore t (rev_entries, count) =
  t.rev_entries <- rev_entries;
  t.count <- count

let time_of = function
  | Propose { at; _ }
  | Send { at; _ }
  | Deliver { at; _ }
  | Discard { at; _ }
  | Timeout { at; _ }
  | Guard { at; _ }
  | Decide { at; _ }
  | Crash { at; _ }
  | Note { at; _ } ->
      at

let pp_layer ppf = function
  | Commit_layer -> Format.pp_print_string ppf "commit"
  | Consensus_layer -> Format.pp_print_string ppf "cons"

let pp_entry ppf = function
  | Propose { at; pid; vote } ->
      Format.fprintf ppf "@[%6d %a proposes %a@]" at Pid.pp pid Vote.pp vote
  | Send { at; src; dst; layer; tag; deliver_at } ->
      Format.fprintf ppf "@[%6d %a -> %a %s (%a, arrives %d)@]" at Pid.pp src
        Pid.pp dst tag pp_layer layer deliver_at
  | Deliver { at; src; dst; layer; tag; sent_at } ->
      Format.fprintf ppf "@[%6d %a <- %a %s (%a, sent %d)@]" at Pid.pp dst
        Pid.pp src tag pp_layer layer sent_at
  | Discard { at; dst; tag } ->
      Format.fprintf ppf "@[%6d %s discarded at crashed %a@]" at tag Pid.pp dst
  | Timeout { at; pid; timer } ->
      Format.fprintf ppf "@[%6d %a timeout %s@]" at Pid.pp pid timer
  | Guard { at; pid; guard } ->
      Format.fprintf ppf "@[%6d %a guard %s@]" at Pid.pp pid guard
  | Decide { at; pid; decision } ->
      Format.fprintf ppf "@[%6d %a decides %a@]" at Pid.pp pid Vote.pp_decision
        decision
  | Crash { at; pid } -> Format.fprintf ppf "@[%6d %a crashes@]" at Pid.pp pid
  | Note { at; pid; label; value } ->
      Format.fprintf ppf "@[%6d %a %s := %s@]" at Pid.pp pid label value

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  List.iter
    (fun e ->
      pp_entry ppf e;
      Format.pp_print_cut ppf ())
    (entries t);
  Format.pp_close_box ppf ()

let decisions t =
  List.filter_map
    (function
      | Decide { at; pid; decision } -> Some (pid, at, decision)
      | Propose _ | Send _ | Deliver _ | Discard _ | Timeout _ | Guard _
      | Crash _ | Note _ ->
          None)
    (entries t)

let crashes t =
  List.filter_map
    (function
      | Crash { at; pid } -> Some (pid, at)
      | Propose _ | Send _ | Deliver _ | Discard _ | Timeout _ | Guard _
      | Decide _ | Note _ ->
          None)
    (entries t)

let proposals t =
  List.filter_map
    (function
      | Propose { pid; vote; _ } -> Some (pid, vote)
      | Send _ | Deliver _ | Discard _ | Timeout _ | Guard _ | Decide _
      | Crash _ | Note _ ->
          None)
    (entries t)

let network_sends ?layer t =
  List.filter
    (function
      | Send { src; dst; layer = l; _ } ->
          (not (Pid.equal src dst))
          && (match layer with None -> true | Some want -> want = l)
      | Propose _ | Deliver _ | Discard _ | Timeout _ | Guard _ | Decide _
      | Crash _ | Note _ ->
          false)
    (entries t)

let notes ?label t =
  List.filter_map
    (function
      | Note { at; pid; label = l; value } ->
          if match label with None -> true | Some want -> String.equal want l
          then Some (at, pid, l, value)
          else None
      | Propose _ | Send _ | Deliver _ | Discard _ | Timeout _ | Guard _
      | Decide _ | Crash _ ->
          None)
    (entries t)
