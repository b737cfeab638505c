(* Physical frame pool of the simulated machine.

   A frame is one page worth of atomic words.  Frame 0 is the pinned,
   permanently zero-filled frame used to back copy-on-write mappings — it is
   what makes an address range "valid for reads" without consuming physical
   memory (§2.1 of the paper).

   Freed frames keep their backing array and are recycled, so the host-level
   allocation cost of the simulation stays bounded.  The pool is protected by
   a host mutex: frame allocation corresponds to kernel work whose cost is
   charged separately (fault/syscall events), so the mutex itself is not part
   of the simulated cost model. *)

open Oamem_engine

type t = {
  geom : Geometry.t;
  mutable store : int Atomic.t array array;  (* frame id -> words *)
  mutable free_ids : int list;
  mutable next_id : int;
  capacity : int;
  mutable quota : int option;  (* cap on live frames (memory pressure) *)
  mutable live : int;
  mutable peak : int;
  mutable freed_total : int;
  lock : Mutex.t;
}

let zero_frame = 0

let fresh_frame geom = Array.init (Geometry.page_words geom) (fun _ -> Atomic.make 0)

let create ?(capacity = 1 lsl 20) ?quota geom =
  let t =
    {
      geom;
      store = Array.make 64 [||];
      free_ids = [];
      next_id = 0;
      capacity;
      quota;
      live = 0;
      peak = 0;
      freed_total = 0;
      lock = Mutex.create ();
    }
  in
  (* Frame 0: the pinned zero frame. *)
  t.store.(0) <- fresh_frame geom;
  t.next_id <- 1;
  t.live <- 1;
  t.peak <- 1;
  t

let grow t needed =
  if needed >= Array.length t.store then begin
    let bigger = Array.make (max (needed + 1) (2 * Array.length t.store)) [||] in
    Array.blit t.store 0 bigger 0 (Array.length t.store);
    t.store <- bigger
  end

exception Out_of_frames

let set_quota t quota =
  Mutex.lock t.lock;
  t.quota <- quota;
  Mutex.unlock t.lock

let quota t = t.quota

(* Allocate a zero-filled frame. *)
let alloc t =
  Mutex.lock t.lock;
  (match t.quota with
  | Some q when t.live >= q ->
      Mutex.unlock t.lock;
      raise Out_of_frames
  | _ -> ());
  let id =
    match t.free_ids with
    | id :: rest ->
        t.free_ids <- rest;
        let words = t.store.(id) in
        Array.iter (fun w -> Atomic.set w 0) words;
        id
    | [] ->
        if t.next_id >= t.capacity then begin
          Mutex.unlock t.lock;
          raise Out_of_frames
        end;
        let id = t.next_id in
        t.next_id <- id + 1;
        grow t id;
        t.store.(id) <- fresh_frame t.geom;
        id
  in
  t.live <- t.live + 1;
  if t.live > t.peak then t.peak <- t.live;
  Mutex.unlock t.lock;
  id

let free t id =
  if id = zero_frame then invalid_arg "Frames.free: cannot free the zero frame";
  Mutex.lock t.lock;
  t.free_ids <- id :: t.free_ids;
  t.live <- t.live - 1;
  t.freed_total <- t.freed_total + 1;
  Mutex.unlock t.lock

let[@inline] word t ~frame ~off =
  assert (off >= 0 && off < Geometry.page_words t.geom);
  t.store.(frame).(off)

let[@inline] paddr t ~frame ~off = Geometry.addr_of_page t.geom frame lor off

let live t = t.live
let peak t = t.peak
let freed_total t = t.freed_total
let reset_freed_total t = t.freed_total <- 0

(* The zero frame must never be written: reads through copy-on-write
   mappings rely on it.  Test hook. *)
let zero_frame_intact t =
  Array.for_all (fun w -> Atomic.get w = 0) t.store.(zero_frame)
