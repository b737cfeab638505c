(* Per-thread translation lookaside buffers.

   Each thread owns a direct-mapped TLB over virtual page numbers.  Misses
   are charged the page-walk cost from the cost model.  Unmapping a range
   triggers a shootdown: the page is flushed from every TLB, mirroring the
   inter-processor interrupts a real kernel would issue. *)

type t = {
  entries : int array array;  (* per thread; -1 = invalid *)
  slots : int;
  cost : Cost_model.t;
  mutable hits : int;
  mutable misses : int;
  mutable shootdowns : int;
}

let create ?(slots = 64) ~cost ~nthreads () =
  if slots <= 0 || slots land (slots - 1) <> 0 then
    invalid_arg "Tlb.create: slots must be a positive power of two";
  {
    entries = Array.init nthreads (fun _ -> Array.make slots (-1));
    slots;
    cost;
    hits = 0;
    misses = 0;
    shootdowns = 0;
  }

(* Charge one translation of [vpage] by thread [tid]; returns cycle cost. *)
let[@inline] access t ~tid vpage =
  let e = t.entries.(tid) in
  let idx = vpage land (t.slots - 1) in
  if e.(idx) = vpage then begin
    t.hits <- t.hits + 1;
    t.cost.tlb_hit
  end
  else begin
    t.misses <- t.misses + 1;
    e.(idx) <- vpage;
    t.cost.tlb_miss
  end

let shootdown t vpage =
  t.shootdowns <- t.shootdowns + 1;
  Array.iter
    (fun e ->
      let idx = vpage land (t.slots - 1) in
      if e.(idx) = vpage then e.(idx) <- -1)
    t.entries

type stats = { hits : int; misses : int; shootdowns : int }

let stats (t : t) = { hits = t.hits; misses = t.misses; shootdowns = t.shootdowns }

let reset_stats (t : t) =
  t.hits <- 0;
  t.misses <- 0;
  t.shootdowns <- 0

let clear t =
  Array.iter (fun e -> Array.fill e 0 (Array.length e) (-1)) t.entries

let pp_stats ppf s =
  Fmt.pf ppf "tlb{hits=%d misses=%d shootdowns=%d}" s.hits s.misses
    s.shootdowns
