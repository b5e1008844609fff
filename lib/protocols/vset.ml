type t = (Pid.t * Vote.t) list
(* sorted by pid, at most one binding per pid *)

let empty = []
let is_empty t = t = []
let singleton p v = [ (p, v) ]

let rec add p v = function
  | [] -> [ (p, v) ]
  | (q, w) :: rest as t ->
      let c = Pid.compare p q in
      if c < 0 then (p, v) :: t
      else if c = 0 then t (* first vote wins *)
      else (q, w) :: add p v rest

let union a b = List.fold_left (fun acc (p, v) -> add p v acc) a b
let rec mem p = function
  | [] -> false
  | (q, _) :: rest -> Pid.equal p q || mem p rest
let find p t = List.assoc_opt p t
let cardinal = List.length
let bindings t = t
let covers t pids = List.for_all (fun p -> mem p t) pids
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
