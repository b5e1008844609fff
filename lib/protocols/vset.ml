type t = (Pid.t * Vote.t) list
(* sorted by pid, at most one binding per pid *)

let empty = []
let is_empty t = t = []
let singleton p v = [ (p, v) ]

(* [add] and [union] return their first argument itself, uncopied, when
   the result binds no new pid, and otherwise share every binding and
   the longest unchanged tail. A vote set stored in one state and sent
   in a message is then often one physical list; the model checker's
   marshal reference hashes with [No_sharing], so this sharing cannot
   move its bytes. *)
let rec add p v = function
  | [] -> [ (p, v) ]
  | ((q, _) as b) :: rest as t ->
      let c = Pid.compare p q in
      if c < 0 then (p, v) :: t
      else if c = 0 then t (* first vote wins *)
      else
        let rest' = add p v rest in
        if rest' == rest then t else b :: rest'

(* A merge in which [a]'s binding wins, equal value for value to folding
   [add] over [b] into [a]. *)
let rec union a b =
  match (a, b) with
  | _, [] -> a
  | [], _ -> b
  | ((p, _) as x) :: ra, ((q, _) as y) :: rb ->
      let c = Pid.compare p q in
      if c > 0 then y :: union a rb
      else
        let r = union ra (if c = 0 then rb else b) in
        if r == ra then a else x :: r

let rec mem p = function
  | [] -> false
  | (q, _) :: rest -> Pid.equal p q || mem p rest

let rec find p = function
  | [] -> None
  | (q, v) :: rest -> if Pid.equal p q then Some v else find p rest
let cardinal = List.length
let bindings t = t
let covers t pids = List.for_all (fun p -> mem p t) pids

(* Sorted and duplicate-free over indices >= 0, so the set binds
   P1..Pk exactly when its first k bindings are indices 0..k-1. *)
let covers_first k t =
  let rec from i = function
    | _ when i = k -> true
    | [] -> false
    | (q, _) :: rest -> Pid.index q = i && from (i + 1) rest
  in
  from 0 t

let complete ~n t = cardinal t = n
let conjunction t = List.fold_left (fun acc (_, v) -> Vote.logand acc v) Vote.yes t

let equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (p, v) (q, w) -> Pid.equal p q && Vote.equal v w)
       a b

let pp ppf t =
  Format.fprintf ppf "{%s}"
    (String.concat ","
       (List.map
          (fun (p, v) ->
            Printf.sprintf "%s:%d" (Pid.to_string p) (Vote.to_int v))
          t))
