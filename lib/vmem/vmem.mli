(** Simulated virtual-memory system (paper §2.1, §3.2).

    An address space of word-addressed pages over simulated physical frames,
    with the anonymous-memory state machine of a modern kernel: copy-on-write
    zero-frame backing, fault-in on first write, [madvise(MADV_DONTNEED)],
    shared-region remapping and plain unmapping.  A CAS on a copy-on-write
    page faults a frame in even though the CAS then fails (§3.2 footnote 2).

    Access to an unmapped page raises {!Segfault} — the simulated equivalent
    of the crash a real optimistic-access implementation would suffer if
    freed memory were actually returned to the operating system. *)

open Oamem_engine

exception Segfault of int

exception Address_space_exhausted
(** Raised by {!reserve} when the virtual address space is spent.  Typed
    (rather than a [Failure]) so exhaustion is recoverable and testable. *)

type t

val create :
  ?max_pages:int ->
  ?frame_capacity:int ->
  ?frame_quota:int ->
  ?shared_region_pages:int ->
  Geometry.t ->
  t
(** Page 0 is reserved so address 0 acts as a null pointer.  [frame_quota]
    caps live physical frames (see {!Frames.create}), simulating memory
    pressure: once reached, any fault-in raises {!Frames.Out_of_frames}. *)

val geometry : t -> Geometry.t
val page_table : t -> Page_table.t
val frames : t -> Frames.t

val set_frame_quota : t -> int option -> unit
(** Adjust the live-frame quota at runtime ([None] removes it). *)

val shared_region_pages : t -> int

val set_trace : t -> Oamem_obs.Trace.t -> unit
(** Attach an event trace: fault-ins and frame releases are emitted as
    [Fault_in] / [Frames_released] events (see {!Oamem_obs.Trace}). *)

val set_access_hook :
  t -> (Engine.ctx -> addr:int -> kind:Engine.access_kind -> unit) option -> unit
(** Install an observer called on entry of every costed word access
    ({!load}, {!store}, {!cas}, {!fetch_and_add}, {!dwcas}) — before
    address translation, so accesses to unmapped pages are observed before
    {!Segfault} fires.  [peek]/[poke] are not observed.  Used by the
    lifecycle sanitizer; [None] uninstalls. *)

(** {2 Mapping calls} — each charges syscall costs and shoots down TLBs. *)

val reserve : t -> npages:int -> int
(** Reserve a fresh virtual range; returns its base word address.  The range
    starts [Unmapped]. *)

val map_anon : t -> Engine.ctx -> vpage:int -> npages:int -> unit
val unmap : t -> Engine.ctx -> vpage:int -> npages:int -> unit
val madvise_dontneed : t -> Engine.ctx -> vpage:int -> npages:int -> unit

val map_shared : t -> Engine.ctx -> vpage:int -> npages:int -> unit
(** Map a range onto the shared region (page [i] to region page
    [i mod region_size]); one syscall per region-sized chunk. *)

val remap_private : t -> Engine.ctx -> vpage:int -> npages:int -> unit
(** [mmap(MAP_FIXED|MAP_PRIVATE|MAP_ANON)] over an existing range: one
    syscall, range reverts to copy-on-write zero. *)

(** {2 Word accesses} — each charges TLB + cache costs. *)

val load : t -> Engine.ctx -> int -> int
val store : t -> Engine.ctx -> int -> int -> unit
val cas : t -> Engine.ctx -> int -> expect:int -> desired:int -> bool
val fetch_and_add : t -> Engine.ctx -> int -> int -> int

val dwcas :
  t ->
  Engine.ctx ->
  int ->
  expect0:int ->
  expect1:int ->
  desired0:int ->
  desired1:int ->
  bool
(** Double-width CAS over two adjacent words ([addr] must be even).  Atomic
    only under the simulation engine. *)

(** {2 Uncosted accessors} (test setup and oracles) *)

val peek : t -> int -> int
val poke : t -> int -> int -> unit
val mapped : t -> int -> bool

(** {2 Translation cache}

    Each thread caches translations (vpage → backing frame) in a
    direct-mapped table of 64 entries indexed by [vpage land 63].  Each
    entry keeps the page-table epoch of its fill: any mapping call, TLB
    shootdown path or fault-in bumps the epoch and invalidates every cached
    entry at once.  The cache only short-circuits the page-table walk on the host —
    TLB and cache-hierarchy cost accounting is unchanged, so simulated
    results are identical with the cache on or off. *)

val set_translation_cache : t -> bool -> unit
(** Enable/disable the per-thread translation cache (default enabled; the
    differential tests run both ways). *)

val translation_cache : t -> bool

val tc_hits : t -> int
(** Host-side accesses served from the translation cache since the last
    {!reset_counters} (observability/testing only — not a simulated stat). *)

val tc_fills : t -> int

val flush_translation_cache : t -> unit
(** Drop every cached translation (part of measurement reset). *)

(** {2 Metrics}

    Fine-grained accessors; the four residency counts derive from one
    page-table scan memoized on the page-table epoch, so reading all of them
    in a metrics snapshot costs at most one scan.  The registry in
    {!Oamem_core.System} exposes them as the [vmem.*] metrics. *)

val frames_live : t -> int
(** Physical frames allocated, incl. the zero and shared-region frames. *)

val frames_peak : t -> int

val resident_pages : t -> int
(** Pages backed by a private frame (the truth). *)

val linux_rss_pages : t -> int
(** Linux-style RSS: private pages + every page of a shared mapping. *)

val mapped_pages : t -> int
val cow_pages : t -> int

val minor_faults : t -> int

val cow_cas_faults : t -> int
(** Fault-ins triggered by CAS on a cow page. *)

val pp_residency : Format.formatter -> t -> unit
(** One-line dump of the metrics above (debugging). *)

val reset_counters : t -> unit
(** Zero the monotone counters ([minor_faults], [cow_cas_faults], frames
    released, translation-cache hit/fill counts) and flush the translation
    cache; peak frame usage is kept. *)
