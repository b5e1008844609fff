(* ------------------------------------------------------------------ *)
(* Worker-count policy.

   [default_jobs] clamps the runtime's recommendation against the
   ACTABLE_JOBS environment override: the variable caps the parallelism
   used when a caller omits [?jobs] (containers and CI runners often
   advertise more domains than the cgroup actually grants). An explicit
   [~jobs] argument is never clamped — callers who ask get what they
   asked for.

   Nested fan-outs must not oversubscribe: a worker domain that itself
   calls [run] (a parallel consumer built from parallel pieces) would
   spawn jobs^2 domains. Every worker marks its domain via a DLS flag,
   and [run] falls back to the sequential path when invoked from a
   marked domain — the outer fan-out already owns the cores. *)

let env_jobs () =
  match Sys.getenv_opt "ACTABLE_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> Some (min j 256)
      | _ -> None)

let default_jobs () =
  let recommended = max 1 (Domain.recommended_domain_count ()) in
  match env_jobs () with
  | Some cap -> min recommended cap
  | None -> recommended

let inside_worker = Domain.DLS.new_key (fun () -> false)

(* The calling domain doubles as worker 0, so it must carry the mark for
   the duration of the batch and drop it afterwards (spawned domains die
   with their mark). *)
let as_worker body =
  Domain.DLS.set inside_worker true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set inside_worker false) body

(* ------------------------------------------------------------------ *)
(* The shared-cursor runner.

   Items (simulated runs) are coarse and numerous, so a shared atomic
   cursor over an array balances well. Each slot is written by exactly
   one worker before the joins, and read only after them, so
   [Domain.join] provides the needed happens-before. On the first
   failure the cursor is poisoned (pushed past [n]) so the other workers
   stop claiming items: claims are issued in index order, hence every
   index below the earliest failure has already been claimed and runs to
   completion — the re-raised exception is exactly the one the
   sequential path would surface first. *)

let run ?jobs f items =
  let work = Array.of_list items in
  let n = Array.length work in
  let jobs =
    min (match jobs with Some j -> max 1 j | None -> default_jobs ()) n
  in
  if jobs <= 1 || n <= 1 || Domain.DLS.get inside_worker then List.map f items
  else begin
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          (match f work.(i) with
          | v -> results.(i) <- Some (Ok v)
          | exception e ->
              results.(i) <- Some (Error (e, Printexc.get_raw_backtrace ()));
              Atomic.set cursor n (* poison: abort the batch promptly *));
          loop ()
        end
      in
      loop ()
    in
    let spawned () =
      Domain.DLS.set inside_worker true;
      worker ()
    in
    let helpers = List.init (jobs - 1) (fun _ -> Domain.spawn spawned) in
    as_worker worker;
    List.iter Domain.join helpers;
    (* Unclaimed (None) slots can only follow the earliest Error: claims
       are contiguous, so scanning in order meets that Error first. *)
    let first_error =
      Array.fold_left
        (fun acc r ->
          match (acc, r) with
          | None, Some (Error (e, bt)) -> Some (e, bt)
          | _ -> acc)
        None results
    in
    match first_error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        Array.to_list results
        |> List.map (function
             | Some (Ok v) -> v
             | Some (Error _) | None -> assert false (* no error: all ran *))
  end
