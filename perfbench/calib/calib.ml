(* Fixed reference work for the benchmark's speed calibration.

   The benchmark times this program between rounds of the program under
   test and scales its wall-clock readings by how fast this ran, so a
   host that slows down for a while (other tenants, frequency changes)
   slows both and the ratio stays put. The work mimics the allocation
   and pointer-chasing profile of the commit service: hashtable churn
   over short lists, then a sort. It shares no code with the program
   under test, so changes to that program never move the reference.

   Usage: calib.exe ROUNDS; prints a checksum that depends only on
   ROUNDS. *)

let () =
  let rounds = int_of_string Sys.argv.(1) in
  let table = Hashtbl.create 1024 in
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  let checksum = ref 0 in
  for _ = 1 to rounds do
    for _ = 1 to 2000 do
      let k = next () mod 4096 in
      let l = Option.value (Hashtbl.find_opt table k) ~default:[] in
      Hashtbl.replace table k (if List.length l > 8 then [ k ] else k :: l)
    done;
    let pairs = Hashtbl.fold (fun k v acc -> (k, List.length v) :: acc) table [] in
    checksum := !checksum + List.length (List.sort compare pairs)
  done;
  print_int !checksum;
  print_newline ()
