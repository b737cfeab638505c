(* Per-thread hazard-pointer slots.

   Each thread owns [k] slots; each slot is a metadata cell, and each
   thread's group of slots is cache-line padded so that publishing a hazard
   pointer does not false-share with other threads' slots (the unpadded
   variant is exercised by the padding ablation bench). *)

open Oamem_engine

type t = { slots : Cell.t array array; k : int }

let create ?(padded = true) meta ~nthreads ~k =
  {
    slots =
      Array.init nthreads (fun _ ->
          Array.init k (fun i ->
              (* pad the first slot of each thread's group *)
              Cell.make ~pad:(padded && i = 0) meta 0));
    k;
  }

let set ctx t ~slot addr = Cell.set ctx t.slots.((Engine.Mem.tid ctx)).(slot) addr

let clear ctx t =
  Array.iter (fun c -> Cell.set ctx c 0) t.slots.((Engine.Mem.tid ctx))

(* Read every thread's slots (charged) into a membership test.  The
   snapshot is small (nthreads * k), so a sorted list is fine. *)
let snapshot ctx t =
  let acc = ref [] in
  Array.iter
    (fun row ->
      Array.iter
        (fun c ->
          let v = Cell.get ctx c in
          if v <> 0 then acc := v :: !acc)
        row)
    t.slots;
  List.sort_uniq Int.compare !acc

let protects snapshot addr = List.exists (Int.equal addr) snapshot

(* Uncosted views for assertions. *)
let peek_thread t ~tid = Array.map Cell.peek t.slots.(tid)
