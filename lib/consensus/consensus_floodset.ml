type msg = Known of { yes : bool; no : bool }

type state = {
  known_yes : bool;
  known_no : bool;
  proposed : bool;
  decided : bool;
}

let name = "floodset"

let pp_msg ppf (Known { yes; no }) =
  Format.fprintf ppf "known{%s%s}" (if yes then "1" else "")
    (if no then "0" else "")

let init _env = { known_yes = false; known_no = false; proposed = false; decided = false }

let round_id r = Printf.sprintf "floodset-round:%d" r

let broadcast_known env state =
  List.map
    (fun q -> Proto.Send (q, Known { yes = state.known_yes; no = state.known_no }))
    (Pid.others ~n:env.Proto.n env.Proto.self)

let merge state (Known { yes; no }) =
  { state with known_yes = state.known_yes || yes; known_no = state.known_no || no }

let on_propose env state v =
  if state.proposed then (state, [])
  else begin
    let state =
      match v with
      | Vote.Yes -> { state with known_yes = true; proposed = true }
      | Vote.No -> { state with known_no = true; proposed = true }
    in
    let actions =
      broadcast_known env state
      @ [ Proto.Set_timer { id = round_id 1; fire = Proto.After env.Proto.u } ]
    in
    (state, actions)
  end

let on_deliver _env state ~src:_ m = (merge state m, [])

let decide state =
  if state.decided then (state, [])
  else begin
    let v = if state.known_no then Vote.No else Vote.Yes in
    ({ state with decided = true }, [ Proto.Decide (Vote.decision_of_vote v) ])
  end

let on_timeout env state ~id =
  match String.index_opt id ':' with
  | Some i when String.length id > i + 1 && String.sub id 0 i = "floodset-round"
    -> (
      match int_of_string_opt (String.sub id (i + 1) (String.length id - i - 1)) with
      | Some r when state.proposed && not state.decided ->
          if r <= env.Proto.f then
            ( state,
              broadcast_known env state
              @ [
                  Proto.Set_timer
                    { id = round_id (r + 1); fire = Proto.After env.Proto.u };
                ] )
          else decide state
      | Some _ | None -> (state, []))
  | Some _ | None -> (state, [])

let hash_state h s =
  Fingerprint.add_bool h s.known_yes;
  Fingerprint.add_bool h s.known_no;
  Fingerprint.add_bool h s.proposed;
  Fingerprint.add_bool h s.decided

let hash_msg h (Known { yes; no }) =
  Fingerprint.add_bool h yes;
  Fingerprint.add_bool h no

(* Rank-oblivious flooding: rounds are counted, never attributed. *)
let symmetry ~n ~f:_ = Symmetry.full ~n
