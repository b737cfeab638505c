(* Host-speed calibration.  A shared 2-core virtual host can change speed
   by more than 1.5x for tens of seconds at a time when a neighbour loads
   the shared cores, invisibly to the guest: the process's CPU time grows
   with its elapsed time, so CPU time is no steadier.  Repetition inside
   one run cannot average that out (perfbench/baseline.json records the
   unscaled spreads).  [reading ()] times a fixed reference loop built from
   the operations the simulator's host time is made of — array and
   hash-table traffic, small allocations and effect round-trips — and
   shares no code with the library.

   Readings are taken only between cells, never while one runs, and the
   caller collects the heap first, so no GC work the program owes is paid
   inside a reading.  A reading starts with discarded warm-up bursts that
   reload the loop's own array and table into the caches the previous cell
   used, and is the median of the bursts after them; so the program's
   cache and heap footprint barely reaches it (one warm-up burst left a
   32 MB footprint 2-5% in the reading, ten leave it under 2%: see
   calibration_checks in perfbench/baseline.json).  Host times are
   reported scaled by [reference_ns / reading] (averaged over a pass's
   readings): nanoseconds on a host that runs the loop in [reference_ns]
   per iteration. *)

type _ Effect.t += Tick : int -> int Effect.t

(* Allocated once, so that a reading's state is the same every time. *)
let a = Array.make 65536 0
let h = Hashtbl.create 4096

let loop n =
  let rng = ref 12345 and acc = ref 0 in
  Effect.Deep.match_with
    (fun () ->
      for i = 1 to n do
        rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
        let k = !rng land 65535 in
        a.(k) <- a.(k) + i;
        Hashtbl.replace h (k land 4095) (k, i);
        (match Hashtbl.find_opt h ((k lsr 4) land 4095) with
        | Some (x, _) -> acc := !acc + x
        | None -> ());
        acc := !acc + Effect.perform (Tick k)
      done;
      !acc)
    ()
    {
      Effect.Deep.retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type b) (e : b Effect.t) ->
          match e with
          | Tick k ->
              Some
                (fun (c : (b, _) Effect.Deep.continuation) ->
                  Effect.Deep.continue c (k land 7))
          | _ -> None);
    }

(* One burst is about 1 ms of the loop. *)
let iters = 10_000
let warmup_bursts = 10
let bursts = 5

(* Nanoseconds per iteration of one burst. *)
let burst () =
  let t0 = Tracer.now_ns () in
  ignore (Sys.opaque_identity (loop iters));
  float_of_int (Tracer.now_ns () - t0) /. float_of_int iters

(* Nanoseconds per iteration of the loop on this host right now. *)
let reading () =
  for _ = 1 to warmup_bursts do
    ignore (burst ())
  done;
  let s = Array.init bursts (fun _ -> burst ()) in
  Array.sort compare s;
  s.(bursts / 2)

(* The scale's fixed point: about what an unloaded 2-core virtual Xeon
   (2.1 GHz) reads. *)
let reference_ns = 150.
