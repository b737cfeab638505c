(* The benchmark's correctness gate: a set oracle over every operation a
   cell ran, and simulated fingerprints that two executions of the same
   cell must share.  Both report a failure as [Error reason]; [self_test]
   feeds each a deliberately wrong input and demands that it trips. *)

(* --- Set oracle ------------------------------------------------------------ *)

(* [count.(k)] = initial presence + successful inserts - successful deletes
   of key [k].  A correct set keeps every count in {0, 1} and its final
   contents equal to the keys whose count is 1. *)
type oracle = { count : int array }

let oracle ~universe ~initial_keys =
  let count = Array.make universe 0 in
  List.iter (fun k -> count.(k) <- count.(k) + 1) initial_keys;
  { count }

let record o ~key ~insert ~ok =
  if ok then o.count.(key) <- (o.count.(key) + if insert then 1 else -1)

let copy o = { count = Array.copy o.count }

let rec strictly_increasing = function
  | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
  | _ -> true

(* The first key in [0, n) satisfying [p]. *)
let find_key n p =
  let rec go k = if k >= n then None else if p k then Some k else go (k + 1) in
  go 0

(* [final] is the structure's [to_list].  [sorted] demands it already be in
   strictly increasing order (a single list); otherwise (a hash table, one
   sorted list per bucket) it must merely hold no duplicate. *)
let check o ~sorted final =
  let n = Array.length o.count in
  let ordered = if sorted then final else List.sort compare final in
  let state k = if o.count.(k) = 1 then "present" else "absent" in
  if not (strictly_increasing ordered) then
    Error
      (if sorted then "to_list is not strictly increasing"
       else "to_list holds a duplicate key")
  else
    match List.find_opt (fun k -> k < 0 || k >= n) ordered with
    | Some k -> Error (Printf.sprintf "key %d outside the universe" k)
    | None -> (
        let present = Array.make n false in
        List.iter (fun k -> present.(k) <- true) ordered;
        match find_key n (fun k -> o.count.(k) < 0 || o.count.(k) > 1) with
        | Some k ->
            Error
              (Printf.sprintf "key %d: %d net successful inserts" k o.count.(k))
        | None -> (
            match find_key n (fun k -> present.(k) <> (o.count.(k) = 1)) with
            | Some k ->
                Error
                  (Printf.sprintf "key %d: oracle says %s, to_list disagrees" k
                     (state k))
            | None -> Ok ()))

(* --- Simulated fingerprints ------------------------------------------------ *)

(* Everything a cell's simulation produced that host speed must not change,
   as an ordered list of named integers; [fingerprint] digests it. *)
type sim_record = (string * int) list

let fingerprint (r : sim_record) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (k, v) ->
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b (string_of_int v);
      Buffer.add_char b ';')
    r;
  Digest.to_hex (Digest.string (Buffer.contents b))

let same ~what (a : sim_record) (b : sim_record) =
  if String.equal (fingerprint a) (fingerprint b) then Ok ()
  else
    let diff =
      try
        let k, _ =
          List.find (fun (k, v) -> List.assoc_opt k b <> Some v) a
        in
        k
      with Not_found -> "length"
    in
    Error
      (Printf.sprintf "%s: simulated fingerprints differ (first at %s)" what
         diff)

(* --- Positive control ------------------------------------------------------ *)

(* Proves the gate can fail: an oracle fed one forged operation result and a
   fingerprint with one tampered value must both be rejected.  [o]/[final]
   must be a passing oracle and its structure contents, [r] any record. *)
let self_test o ~sorted final (r : sim_record) =
  let forged = copy o in
  (* forge the result of one delete: claim it succeeded on the first key
     the structure still holds (or an insert of key 0 on an empty set) *)
  (match final with
  | k :: _ -> record forged ~key:k ~insert:false ~ok:true
  | [] -> record forged ~key:0 ~insert:true ~ok:true);
  let tampered =
    match r with
    | (k, v) :: rest -> (k, v + 1) :: rest
    | [] -> [ ("tampered", 1) ]
  in
  match
    ( check o ~sorted final,
      check forged ~sorted final,
      same ~what:"control" r r,
      same ~what:"control" r tampered )
  with
  | Ok (), Error _, Ok (), Error _ -> Ok ()
  | Error e, _, _, _ -> Error ("positive control: honest oracle failed: " ^ e)
  | _, Ok (), _, _ -> Error "positive control: forged op result passed"
  | _, _, Error e, _ -> Error ("positive control: " ^ e)
  | _, _, _, Ok () -> Error "positive control: tampered fingerprint passed"
