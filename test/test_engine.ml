(* Tests for the simulated multicore engine: geometry, PRNG, cache levels,
   hierarchy coherence, TLB, the effect-based scheduler, and metadata cells. *)

open Oamem_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Geometry ------------------------------------------------------------ *)

let test_geometry () =
  let g = Geometry.default in
  check_int "line words" 8 (Geometry.line_words g);
  check_int "page words" 512 (Geometry.page_words g);
  check_int "lines per page" 64 (Geometry.lines_per_page g);
  check_int "block of addr" 2 (Geometry.block_of_addr g 17);
  check_int "page of addr" 1 (Geometry.page_of_addr g 513);
  check_int "offset in page" 1 (Geometry.offset_in_page g 513);
  check_int "addr of page" 1024 (Geometry.addr_of_page g 2)

(* --- Prng ---------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    check_int "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next a = Prng.next b then incr same
  done;
  check_bool "streams differ" true (!same < 4)

let test_prng_bounds () =
  let r = Prng.create 3 in
  for _ = 1 to 1000 do
    let x = Prng.int r 10 in
    check_bool "in range" true (x >= 0 && x < 10)
  done

let prng_uniform_prop =
  QCheck.Test.make ~name:"prng int covers range" ~count:50
    QCheck.(int_range 2 50)
    (fun bound ->
      let r = Prng.create bound in
      let seen = Array.make bound false in
      for _ = 1 to bound * 100 do
        seen.(Prng.int r bound) <- true
      done;
      Array.for_all Fun.id seen)

(* --- Cache --------------------------------------------------------------- *)

let test_cache_hit_miss () =
  let c = Cache.create ~name:"t" ~sets:4 ~ways:2 in
  check_bool "first access misses" false (Cache.access c 5);
  check_bool "second access hits" true (Cache.access c 5);
  check_bool "still present" true (Cache.present c 5)

let test_cache_lru_eviction () =
  let c = Cache.create ~name:"t" ~sets:1 ~ways:2 in
  ignore (Cache.access c 1);
  ignore (Cache.access c 2);
  ignore (Cache.access c 1);
  (* set is [1 (MRU); 2 (LRU)]; inserting 3 must evict 2 *)
  check_bool "3 misses" false (Cache.access c 3);
  check_bool "1 survives" true (Cache.present c 1);
  check_bool "2 evicted" false (Cache.present c 2)

let test_cache_sets_independent () =
  let c = Cache.create ~name:"t" ~sets:2 ~ways:1 in
  ignore (Cache.access c 0);
  ignore (Cache.access c 1);
  (* different sets: both present *)
  check_bool "even block" true (Cache.present c 0);
  check_bool "odd block" true (Cache.present c 1)

let test_cache_invalidate () =
  let c = Cache.create ~name:"t" ~sets:4 ~ways:2 in
  ignore (Cache.access c 9);
  Cache.invalidate c 9;
  check_bool "gone" false (Cache.present c 9);
  let (s : Cache.stats) = Cache.stats c in
  check_int "one invalidation" 1 s.invalidations

let test_cache_stats () =
  let c = Cache.create ~name:"t" ~sets:4 ~ways:2 in
  ignore (Cache.access c 1);
  ignore (Cache.access c 1);
  ignore (Cache.access c 2);
  let (s : Cache.stats) = Cache.stats c in
  check_int "hits" 1 s.hits;
  check_int "misses" 2 s.misses;
  Cache.reset_stats c;
  let (s : Cache.stats) = Cache.stats c in
  check_int "reset" 0 (s.hits + s.misses)

(* Victim choice prefers any invalid way to the least-recently-used valid
   one, wherever the invalid way sits in the set. *)
let test_cache_invalid_way_wins () =
  let c = Cache.create ~name:"t" ~sets:1 ~ways:3 in
  List.iter (fun b -> ignore (Cache.access c b)) [ 1; 2; 3 ];
  Cache.invalidate c 2;
  check_bool "4 misses" false (Cache.access c 4);
  check_bool "oldest valid way survives" true (Cache.present c 1);
  check_bool "3 survives" true (Cache.present c 3);
  (* the most recent block sits at the front of the set; invalidate it *)
  Cache.invalidate c 4;
  check_bool "5 misses" false (Cache.access c 5);
  check_bool "1 still survives" true (Cache.present c 1);
  check_bool "3 still survives" true (Cache.present c 3);
  check_bool "5 installed" true (Cache.present c 5)

let test_cache_bad_create () =
  Alcotest.check_raises "sets must be pow2" (Invalid_argument
    "Cache.create: sets must be a power of two") (fun () ->
      ignore (Cache.create ~name:"t" ~sets:3 ~ways:1))

(* --- Hierarchy ----------------------------------------------------------- *)

let cost = Cost_model.opteron_6274

let test_hierarchy_miss_then_hit () =
  let h = Hierarchy.create ~cost ~nthreads:2 () in
  let c1 = Hierarchy.access h ~tid:0 ~kind:Hierarchy.Load 42 in
  check_int "cold load from dram" cost.dram c1;
  let c2 = Hierarchy.access h ~tid:0 ~kind:Hierarchy.Load 42 in
  check_int "then l1 hit" cost.l1_hit c2

let test_hierarchy_l2_shared_by_pair () =
  let h = Hierarchy.create ~cost ~nthreads:4 () in
  ignore (Hierarchy.access h ~tid:0 ~kind:Hierarchy.Load 42);
  (* tid 1 shares tid 0's L2 bank: should hit L2, not DRAM *)
  let c = Hierarchy.access h ~tid:1 ~kind:Hierarchy.Load 42 in
  check_int "pair sees l2" cost.l2_hit c;
  (* tid 2 is in another bank: hits the shared L3 *)
  let c = Hierarchy.access h ~tid:2 ~kind:Hierarchy.Load 42 in
  check_int "other bank sees l3" cost.l3_hit c

let test_hierarchy_write_invalidates_sharers () =
  let h = Hierarchy.create ~cost ~nthreads:4 () in
  ignore (Hierarchy.access h ~tid:0 ~kind:Hierarchy.Load 7);
  ignore (Hierarchy.access h ~tid:2 ~kind:Hierarchy.Load 7);
  check_int "two sharers" 0b101 (Hierarchy.sharers h 7);
  (* tid 2 writes: tid 0's copy must be invalidated and the write pays the
     invalidation broadcast *)
  let c = Hierarchy.access h ~tid:2 ~kind:Hierarchy.Store 7 in
  check_bool "write pays invalidation" true (c >= cost.invalidation);
  check_int "writer owns the line" 0b100 (Hierarchy.sharers h 7);
  (* tid 0 must now miss L1 *)
  let c = Hierarchy.access h ~tid:0 ~kind:Hierarchy.Load 7 in
  check_bool "reader misses after invalidation" true (c > cost.l1_hit)

let test_hierarchy_rmw_premium () =
  let h = Hierarchy.create ~cost ~nthreads:1 () in
  ignore (Hierarchy.access h ~tid:0 ~kind:Hierarchy.Load 3);
  let load = Hierarchy.access h ~tid:0 ~kind:Hierarchy.Load 3 in
  let rmw = Hierarchy.access h ~tid:0 ~kind:Hierarchy.Rmw 3 in
  check_int "rmw costs extra" (load + cost.rmw_extra) rmw

let test_hierarchy_local_write_is_cheap () =
  let h = Hierarchy.create ~cost ~nthreads:2 () in
  ignore (Hierarchy.access h ~tid:0 ~kind:Hierarchy.Store 11);
  let c = Hierarchy.access h ~tid:0 ~kind:Hierarchy.Store 11 in
  check_int "exclusive store hits l1, no broadcast" cost.l1_hit c

let test_hierarchy_stats () =
  let h = Hierarchy.create ~cost ~nthreads:2 () in
  ignore (Hierarchy.access h ~tid:0 ~kind:Hierarchy.Load 1);
  ignore (Hierarchy.access h ~tid:0 ~kind:Hierarchy.Load 1);
  let s = Hierarchy.stats h in
  check_int "l1 hits" 1 s.l1.Cache.hits;
  check_int "l1 misses" 1 s.l1.Cache.misses;
  Hierarchy.reset_stats h;
  let s = Hierarchy.stats h in
  check_int "reset" 0 s.l1.Cache.hits

(* Differential test against a reference model of the hierarchy without
   the two host-speed shortcuts of {!Hierarchy} and {!Cache}: every access
   probes the directory (a plain Hashtbl here), even a load that hits L1,
   and a cache looks a block up and picks its victim in two separate scans
   over a set that keeps no MRU order.  [skip] names the kinds that skip
   the directory on an L1 hit: none in the faithful model; loads and
   stores in the mutant that the positive control must catch. *)
module Ref_hierarchy = struct
  type cache = {
    sets : int;
    ways : int;
    lines : int array;  (* tag at [2i] (-1 = invalid), LRU stamp at [2i + 1] *)
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
    mutable invalidations : int;
  }

  let cache ~sets ~ways =
    {
      sets;
      ways;
      lines =
        Array.init (2 * sets * ways) (fun i -> if i land 1 = 0 then -1 else 0);
      tick = 0;
      hits = 0;
      misses = 0;
      invalidations = 0;
    }

  let base c block = 2 * (block land (c.sets - 1)) * c.ways

  let find_way c block =
    let base = base c block in
    let rec go i =
      if i >= c.ways then -1
      else if c.lines.(base + (2 * i)) = block then i
      else go (i + 1)
    in
    go 0

  (* An invalid way (the last one), else the smallest LRU stamp. *)
  let pick_victim c block =
    let base = base c block in
    let tag i = c.lines.(base + (2 * i))
    and stamp i = c.lines.(base + (2 * i) + 1) in
    let rec go best i =
      if i >= c.ways then best
      else if tag i = -1 then go i (i + 1)
      else if tag best <> -1 && stamp i < stamp best then go i (i + 1)
      else go best (i + 1)
    in
    go 0 1

  let cache_access c block =
    c.tick <- c.tick + 1;
    let way = find_way c block in
    let hit = way >= 0 in
    let way =
      if hit then (c.hits <- c.hits + 1; way)
      else (c.misses <- c.misses + 1; pick_victim c block)
    in
    let i = base c block + (2 * way) in
    c.lines.(i) <- block;
    c.lines.(i + 1) <- c.tick;
    hit

  let cache_invalidate c block =
    let way = find_way c block in
    if way >= 0 then begin
      c.lines.(base c block + (2 * way)) <- -1;
      c.invalidations <- c.invalidations + 1
    end

  type t = {
    cost : Cost_model.t;
    nthreads : int;
    per_l2 : int;
    l1 : cache array;
    l2 : cache array;
    l3 : cache;
    dir : (int, int) Hashtbl.t;
    mutable remote_invalidations : int;
    skip : Hierarchy.kind -> bool;
  }

  let create ?(skip = fun _ -> false) (cfg : Hierarchy.config) ~cost ~nthreads =
    let per_l2 = cfg.threads_per_l2 in
    {
      cost;
      nthreads;
      per_l2;
      l1 =
        Array.init nthreads (fun _ ->
            cache ~sets:cfg.l1_sets ~ways:cfg.l1_ways);
      l2 =
        Array.init ((nthreads + per_l2 - 1) / per_l2) (fun _ ->
            cache ~sets:cfg.l2_sets ~ways:cfg.l2_ways);
      l3 = cache ~sets:cfg.l3_sets ~ways:cfg.l3_ways;
      dir = Hashtbl.create 64;
      remote_invalidations = 0;
      skip;
    }

  let sharers t block = Option.value ~default:0 (Hashtbl.find_opt t.dir block)

  let access t ~tid ~kind block =
    let c = t.cost in
    let l1_hit = cache_access t.l1.(tid) block in
    if l1_hit && t.skip kind then c.l1_hit
    else
      let hit_cost =
        if l1_hit then c.l1_hit
        else if cache_access t.l2.(tid / t.per_l2) block then c.l2_hit
        else if cache_access t.l3 block then c.l3_hit
        else c.dram
      in
      let bit = 1 lsl tid and mask = sharers t block in
      let coherence_cost =
        match (kind : Hierarchy.kind) with
        | Load ->
            Hashtbl.replace t.dir block (mask lor bit);
            0
        | Store | Rmw ->
            Hashtbl.replace t.dir block bit;
            let others = mask land lnot bit in
            if others = 0 then 0
            else begin
              for tid' = 0 to t.nthreads - 1 do
                if others land (1 lsl tid') <> 0 then begin
                  cache_invalidate t.l1.(tid') block;
                  if tid' / t.per_l2 <> tid / t.per_l2 then
                    cache_invalidate t.l2.(tid' / t.per_l2) block
                end
              done;
              t.remote_invalidations <- t.remote_invalidations + 1;
              c.invalidation
            end
      in
      let rmw_cost = match kind with Rmw -> c.rmw_extra | Load | Store -> 0 in
      hit_cost + coherence_cost + rmw_cost

  let stats t : Hierarchy.stats =
    let one c : Cache.stats =
      { hits = c.hits; misses = c.misses; invalidations = c.invalidations }
    in
    let sum cs : Cache.stats =
      Array.fold_left
        (fun (acc : Cache.stats) c ->
          {
            hits = acc.hits + c.hits;
            misses = acc.misses + c.misses;
            invalidations = acc.invalidations + c.invalidations;
          })
        { hits = 0; misses = 0; invalidations = 0 }
        cs
    in
    {
      l1 = sum t.l1;
      l2 = sum t.l2;
      l3 = one t.l3;
      remote_invalidations = t.remote_invalidations;
    }
end

(* The observable surface of one hierarchy implementation. *)
type hierarchy_impl = {
  access : tid:int -> kind:Hierarchy.kind -> int -> int;
  stats : unit -> Hierarchy.stats;
  remote_invalidations : unit -> int;
  sharers : int -> int;
  l1_holds : tid:int -> int -> bool;
}

let real_impl cfg ~nthreads =
  let h = Hierarchy.create ~cfg ~cost ~nthreads () in
  {
    access = Hierarchy.access h;
    stats = (fun () -> Hierarchy.stats h);
    remote_invalidations = (fun () -> Hierarchy.remote_invalidations h);
    sharers = Hierarchy.sharers h;
    l1_holds = Hierarchy.l1_holds h;
  }

let ref_impl ?skip cfg ~nthreads =
  let r = Ref_hierarchy.create ?skip cfg ~cost ~nthreads in
  {
    access = Ref_hierarchy.access r;
    stats = (fun () -> Ref_hierarchy.stats r);
    remote_invalidations = (fun () -> r.remote_invalidations);
    sharers = Ref_hierarchy.sharers r;
    l1_holds =
      (fun ~tid block -> Ref_hierarchy.find_way r.l1.(tid) block >= 0);
  }

(* Drive [a] and [b] with one seeded Load/Store/Rmw stream and return the
   first divergence in per-access cost, stats, invalidation count or the
   sharers of a touched block, or the first L1-resident block whose
   holder's sharer bit is clear.  Blocks mix a few contended hot lines,
   metadata-region lines near 2^47 and two ranges sized to overflow L1
   and L3.  An access can only add L1 residency or change sharer bits for
   the block it touches, so checking that block after every step (and
   every touched block at the end) checks the invariant everywhere. *)
let hierarchy_diff (cfg : Hierarchy.config) ~nthreads ~seed ~steps a b =
  let r = Prng.create seed in
  let l1_range = 4 * cfg.l1_sets * cfg.l1_ways
  and l3_range = 4 * cfg.l3_sets * cfg.l3_ways in
  let touched = Hashtbl.create 1024 in
  let exception Diverged of string in
  let fail step fmt =
    Printf.ksprintf
      (fun m -> raise (Diverged (Printf.sprintf "step %d: %s" step m)))
      fmt
  in
  let check_block step block =
    if a.sharers block <> b.sharers block then
      fail step "sharers of %d: %#x <> %#x" block (a.sharers block)
        (b.sharers block);
    List.iter
      (fun (name, i) ->
        for tid = 0 to nthreads - 1 do
          if i.l1_holds ~tid block && i.sharers block land (1 lsl tid) = 0
          then
            fail step "%s: L1.%d holds %d without its sharer bit" name tid
              block
        done)
      [ ("a", a); ("b", b) ]
  in
  try
    for step = 1 to steps do
      let tid = Prng.int r nthreads in
      let block =
        match Prng.int r 8 with
        | 0 -> Prng.int r 4
        | 1 -> (1 lsl 47) + Prng.int r 64
        | 2 | 3 | 4 -> Prng.int r l1_range
        | _ -> Prng.int r l3_range
      in
      let kind =
        match Prng.int r 10 with
        | 0 | 1 -> Hierarchy.Store
        | 2 -> Hierarchy.Rmw
        | _ -> Hierarchy.Load
      in
      Hashtbl.replace touched block ();
      let ca = a.access ~tid ~kind block and cb = b.access ~tid ~kind block in
      if ca <> cb then fail step "cost of %d by %d: %d <> %d" block tid ca cb;
      if a.remote_invalidations () <> b.remote_invalidations () then
        fail step "remote invalidations";
      if a.stats () <> b.stats () then fail step "stats";
      check_block step block
    done;
    Hashtbl.iter (fun block () -> check_block steps block) touched;
    Ok ()
  with Diverged m -> Error m

let diff_cases =
  List.concat_map
    (fun (name, cfg) ->
      List.map (fun nthreads -> (name, cfg, nthreads)) [ 1; 2; 4; 8 ])
    [
      ("tiny", Hierarchy.tiny_config);
      ("opteron", Hierarchy.opteron_6274_config);
    ]

let diff_steps = 20_000

let test_hierarchy_matches_reference () =
  List.iter
    (fun (name, cfg, nthreads) ->
      List.iter
        (fun seed ->
          match
            hierarchy_diff cfg ~nthreads ~seed ~steps:diff_steps
              (real_impl cfg ~nthreads) (ref_impl cfg ~nthreads)
          with
          | Ok () -> ()
          | Error m ->
              Alcotest.failf "%s, %d threads, seed %d: %s" name nthreads seed m)
        [ 1; 2 ])
    diff_cases

(* Positive control: skipping the directory on L1-hit stores too leaves
   remote copies valid, which the differential run must catch wherever
   another thread can hold the block. *)
let test_hierarchy_diff_catches_store_skip () =
  let skip : Hierarchy.kind -> bool = function
    | Load | Store -> true
    | Rmw -> false
  in
  List.iter
    (fun (name, cfg, nthreads) ->
      let verdict =
        hierarchy_diff cfg ~nthreads ~seed:1 ~steps:diff_steps
          (ref_impl ~skip cfg ~nthreads) (ref_impl cfg ~nthreads)
      in
      check_bool
        (Printf.sprintf "%s, %d threads: mutant diverges" name nthreads)
        (nthreads > 1) (Result.is_error verdict))
    diff_cases

(* --- Tlb ----------------------------------------------------------------- *)

let test_tlb_hit_miss () =
  let tlb = Tlb.create ~cost ~nthreads:2 () in
  check_int "cold miss" cost.tlb_miss (Tlb.access tlb ~tid:0 3);
  check_int "then hit" cost.tlb_hit (Tlb.access tlb ~tid:0 3);
  (* other thread has its own TLB *)
  check_int "private per thread" cost.tlb_miss (Tlb.access tlb ~tid:1 3)

let test_tlb_shootdown () =
  let tlb = Tlb.create ~cost ~nthreads:2 () in
  ignore (Tlb.access tlb ~tid:0 9);
  ignore (Tlb.access tlb ~tid:1 9);
  Tlb.shootdown tlb 9;
  check_int "miss after shootdown" cost.tlb_miss (Tlb.access tlb ~tid:0 9);
  let (s : Tlb.stats) = Tlb.stats tlb in
  check_int "one shootdown" 1 s.shootdowns

let test_tlb_conflict () =
  let tlb = Tlb.create ~slots:4 ~cost ~nthreads:1 () in
  ignore (Tlb.access tlb ~tid:0 1);
  ignore (Tlb.access tlb ~tid:0 5);
  (* direct-mapped: page 5 evicted page 1 (same slot 1 mod 4) *)
  check_int "conflict evicts" cost.tlb_miss (Tlb.access tlb ~tid:0 1)

(* --- Engine scheduler ---------------------------------------------------- *)

let test_engine_runs_threads () =
  let eng = Engine.create ~nthreads:3 () in
  let hits = Array.make 3 false in
  for tid = 0 to 2 do
    Engine.spawn eng ~tid (fun _ctx -> hits.(tid) <- true)
  done;
  Engine.run eng;
  Array.iteri (fun i h -> check_bool (Printf.sprintf "thread %d ran" i) true h) hits

let test_engine_min_clock_interleaves_fairly () =
  (* Two threads doing identical accesses must advance in lockstep: the
     trace of tids must alternate. *)
  let eng = Engine.create ~nthreads:2 () in
  let trace = ref [] in
  for tid = 0 to 1 do
    Engine.spawn eng ~tid (fun ctx ->
        for _ = 1 to 5 do
          Engine.Mem.access ctx ~vpage:(-1) ~paddr:(1000 * (tid + 1)) ~kind:Engine.Load;
          trace := (Engine.Mem.tid ctx) :: !trace
        done)
  done;
  Engine.run eng;
  let t = List.rev !trace in
  (* After both threads' first access, tids must alternate. *)
  check_int "all events" 10 (List.length t);
  let rec alternates = function
    | a :: b :: rest -> a <> b && alternates (b :: rest)
    | _ -> true
  in
  check_bool "alternating schedule" true (alternates t)

let test_engine_clock_accumulates () =
  let eng = Engine.create ~nthreads:1 () in
  Engine.spawn eng ~tid:0 (fun ctx ->
      Engine.Mem.access ctx ~vpage:(-1) ~paddr:8 ~kind:Engine.Load;
      Engine.Mem.access ctx ~vpage:(-1) ~paddr:8 ~kind:Engine.Load);
  Engine.run eng;
  (* cold dram + l1 hit *)
  check_int "clock" (cost.dram + cost.l1_hit) (Engine.clock eng ~tid:0)

let test_engine_charge_and_now () =
  let eng = Engine.create ~nthreads:1 () in
  Engine.spawn eng ~tid:0 (fun ctx ->
      Engine.Mem.charge ctx 123;
      check_int "now sees charge" 123 (Engine.Mem.now ctx));
  Engine.run eng;
  check_int "clock kept" 123 (Engine.clock eng ~tid:0)

let test_engine_fence_costs () =
  let eng = Engine.create ~nthreads:1 () in
  Engine.spawn eng ~tid:0 (fun ctx ->
      Engine.Mem.fence ctx Engine.Full;
      Engine.Mem.fence ctx Engine.Compiler);
  Engine.run eng;
  check_int "full fence only" cost.fence_full (Engine.clock eng ~tid:0);
  check_int "fences counted" 1 (Engine.stats eng).Engine.fences

let test_engine_slot_reuse_across_phases () =
  let eng = Engine.create ~nthreads:2 () in
  let order = ref [] in
  Engine.spawn eng ~tid:0 (fun _ -> order := `Prefill :: !order);
  Engine.run eng;
  Engine.reset_clocks eng;
  for tid = 0 to 1 do
    Engine.spawn eng ~tid (fun _ -> order := `Work :: !order)
  done;
  Engine.run eng;
  check_int "three runs" 3 (List.length !order)

let test_engine_spawn_busy_slot_rejected () =
  let eng = Engine.create ~nthreads:1 () in
  Engine.spawn eng ~tid:0 (fun _ -> ());
  Alcotest.check_raises "busy" (Invalid_argument "Engine.spawn: slot busy")
    (fun () -> Engine.spawn eng ~tid:0 (fun _ -> ()))

let test_engine_step_limit () =
  let eng = Engine.create ~nthreads:1 () in
  Engine.spawn eng ~tid:0 (fun ctx ->
      while true do
        Engine.Mem.pause ctx
      done);
  Alcotest.check_raises "limit" Engine.Step_limit_exceeded (fun () ->
      Engine.run ~max_steps:100 eng)

let test_engine_exception_propagates () =
  let eng = Engine.create ~nthreads:1 () in
  Engine.spawn eng ~tid:0 (fun ctx ->
      Engine.Mem.pause ctx;
      failwith "boom");
  Alcotest.check_raises "boom" (Failure "boom") (fun () -> Engine.run eng)

let test_engine_random_policy_deterministic () =
  let run_once seed =
    let eng = Engine.create ~policy:(Engine.Random_order seed) ~nthreads:3 () in
    let trace = ref [] in
    for tid = 0 to 2 do
      Engine.spawn eng ~tid (fun ctx ->
          for _ = 1 to 4 do
            Engine.Mem.pause ctx;
            trace := (Engine.Mem.tid ctx) :: !trace
          done)
    done;
    Engine.run eng;
    !trace
  in
  check_bool "same seed, same schedule" true (run_once 5 = run_once 5);
  check_bool "different seeds usually differ" true (run_once 5 <> run_once 6)

let test_engine_contention_costs_more () =
  (* Two threads hammering the same line with RMW must accumulate more
     cycles than two threads on private lines, because of coherence. *)
  let run shared =
    let eng = Engine.create ~nthreads:2 () in
    for tid = 0 to 1 do
      Engine.spawn eng ~tid (fun ctx ->
          let paddr = if shared then 64 else 64 * (tid + 1) * 8 in
          for _ = 1 to 50 do
            Engine.Mem.access ctx ~vpage:(-1) ~paddr ~kind:Engine.Rmw
          done)
    done;
    Engine.run eng;
    Engine.elapsed eng
  in
  check_bool "contended slower" true (run true > run false)

let test_engine_external_ctx_is_free () =
  let ctx = Engine.external_ctx () in
  Engine.Mem.access ctx ~vpage:0 ~paddr:0 ~kind:Engine.Store;
  Engine.Mem.fence ctx Engine.Full;
  Engine.Mem.charge ctx 10;
  check_int "no clock" 0 (Engine.Mem.now ctx)

let test_engine_elapsed_seconds () =
  let eng = Engine.create ~nthreads:1 () in
  Engine.spawn eng ~tid:0 (fun ctx -> Engine.Mem.charge ctx 2_200_000);
  Engine.run eng;
  Alcotest.(check (float 1e-9)) "1ms at 2.2GHz" 0.001 (Engine.elapsed_seconds eng)

(* --- Cell ---------------------------------------------------------------- *)

let test_cell_ops () =
  let h = Cell.heap Geometry.default in
  let ctx = Engine.external_ctx () in
  let c = Cell.make h 5 in
  check_int "get" 5 (Cell.get ctx c);
  Cell.set ctx c 9;
  check_int "set" 9 (Cell.peek c);
  check_bool "cas ok" true (Cell.cas ctx c ~expect:9 ~desired:10);
  check_bool "cas fail" false (Cell.cas ctx c ~expect:9 ~desired:11);
  check_int "after cas" 10 (Cell.get ctx c);
  check_int "xchg" 10 (Cell.exchange ctx c 1);
  check_int "faa" 1 (Cell.fetch_and_add ctx c 4);
  check_int "after faa" 5 (Cell.get ctx c)

let test_cell_padding_separates_lines () =
  let g = Geometry.default in
  let h = Cell.heap g in
  let a = Cell.make ~pad:true h 0 in
  let b = Cell.make ~pad:true h 0 in
  check_bool "different cache lines" true
    (Geometry.block_of_addr g (Cell.addr a)
    <> Geometry.block_of_addr g (Cell.addr b));
  let h2 = Cell.heap g in
  let c = Cell.make h2 0 in
  let d = Cell.make h2 0 in
  check_bool "unpadded cells share a line" true
    (Geometry.block_of_addr g (Cell.addr c)
    = Geometry.block_of_addr g (Cell.addr d))

let test_cell_costed_under_engine () =
  let eng = Engine.create ~nthreads:1 () in
  let h = Cell.heap (Engine.geometry eng) in
  let c = Cell.make h 0 in
  Engine.spawn eng ~tid:0 (fun ctx ->
      Cell.set ctx c 1;
      ignore (Cell.get ctx c));
  Engine.run eng;
  check_bool "cell accesses cost cycles" true (Engine.clock eng ~tid:0 > 0);
  check_int "two accesses" 2 (Engine.stats eng).Engine.accesses


(* --- additional property tests ------------------------------------------- *)

(* The cache behaves like a reference LRU model. *)
let cache_lru_model_prop =
  QCheck.Test.make ~name:"cache matches reference LRU model" ~count:60
    QCheck.(list (int_bound 31))
    (fun blocks ->
      let sets = 4 and ways = 2 in
      let c = Cache.create ~name:"m" ~sets ~ways in
      (* model: per set, a most-recently-used-first list of tags *)
      let model = Array.make sets [] in
      List.for_all
        (fun b ->
          let s = b land (sets - 1) in
          let hit_model = List.mem b model.(s) in
          let hit = Cache.access c b in
          (* update model: move/insert to front, truncate to ways *)
          let rest = List.filter (fun x -> x <> b) model.(s) in
          model.(s) <- b :: (if List.length rest >= ways then
                               List.filteri (fun i _ -> i < ways - 1) rest
                             else rest);
          hit = hit_model)
        blocks)

(* Min-clock scheduling: per-thread clocks never decrease and the engine
   drains every spawned thread. *)
let engine_progress_prop =
  QCheck.Test.make ~name:"engine drains all threads, clocks monotone"
    ~count:30
    QCheck.(pair (int_range 1 6) (int_range 1 40))
    (fun (nthreads, accesses) ->
      let eng = Engine.create ~nthreads () in
      let finished = Array.make nthreads false in
      let monotone = ref true in
      for tid = 0 to nthreads - 1 do
        Engine.spawn eng ~tid (fun ctx ->
            let last = ref 0 in
            for i = 1 to accesses do
              Engine.Mem.access ctx ~vpage:(-1) ~paddr:(i * (tid + 1))
                ~kind:Engine.Load;
              let now = Engine.Mem.now ctx in
              if now < !last then monotone := false;
              last := now
            done;
            finished.((Engine.Mem.tid ctx)) <- true)
      done;
      Engine.run eng;
      !monotone && Array.for_all Fun.id finished)

(* After any store by one thread, the directory never leaves another
   thread's stale copy readable as a hit without re-fetch: writing thread
   becomes the sole sharer. *)
let hierarchy_writer_owns_prop =
  QCheck.Test.make ~name:"writer becomes sole directory sharer" ~count:100
    QCheck.(pair (int_bound 3) (int_bound 63))
    (fun (writer, block) ->
      let h = Hierarchy.create ~cost ~nthreads:4 () in
      (* several readers touch the block first *)
      for tid = 0 to 3 do
        ignore (Hierarchy.access h ~tid ~kind:Hierarchy.Load block)
      done;
      ignore (Hierarchy.access h ~tid:writer ~kind:Hierarchy.Store block);
      Hierarchy.sharers h block = 1 lsl writer)

let suite =
  [
    ("geometry", `Quick, test_geometry);
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng seeds differ", `Quick, test_prng_seeds_differ);
    ("prng bounds", `Quick, test_prng_bounds);
    ("cache hit/miss", `Quick, test_cache_hit_miss);
    ("cache lru", `Quick, test_cache_lru_eviction);
    ("cache sets", `Quick, test_cache_sets_independent);
    ("cache invalidate", `Quick, test_cache_invalidate);
    ("cache stats", `Quick, test_cache_stats);
    ("cache bad create", `Quick, test_cache_bad_create);
    ("cache invalid way wins", `Quick, test_cache_invalid_way_wins);
    ("hierarchy miss/hit", `Quick, test_hierarchy_miss_then_hit);
    ("hierarchy l2 pair", `Quick, test_hierarchy_l2_shared_by_pair);
    ("hierarchy invalidation", `Quick, test_hierarchy_write_invalidates_sharers);
    ("hierarchy rmw", `Quick, test_hierarchy_rmw_premium);
    ("hierarchy local write", `Quick, test_hierarchy_local_write_is_cheap);
    ("hierarchy stats", `Quick, test_hierarchy_stats);
    ("hierarchy = reference", `Quick, test_hierarchy_matches_reference);
    ("hierarchy diff control", `Quick, test_hierarchy_diff_catches_store_skip);
    ("tlb hit/miss", `Quick, test_tlb_hit_miss);
    ("tlb shootdown", `Quick, test_tlb_shootdown);
    ("tlb conflict", `Quick, test_tlb_conflict);
    ("engine runs threads", `Quick, test_engine_runs_threads);
    ("engine min-clock fair", `Quick, test_engine_min_clock_interleaves_fairly);
    ("engine clock", `Quick, test_engine_clock_accumulates);
    ("engine charge/now", `Quick, test_engine_charge_and_now);
    ("engine fence", `Quick, test_engine_fence_costs);
    ("engine slot reuse", `Quick, test_engine_slot_reuse_across_phases);
    ("engine busy slot", `Quick, test_engine_spawn_busy_slot_rejected);
    ("engine step limit", `Quick, test_engine_step_limit);
    ("engine exception", `Quick, test_engine_exception_propagates);
    ("engine random policy", `Quick, test_engine_random_policy_deterministic);
    ("engine contention", `Quick, test_engine_contention_costs_more);
    ("engine external ctx", `Quick, test_engine_external_ctx_is_free);
    ("engine elapsed seconds", `Quick, test_engine_elapsed_seconds);
    ("cell ops", `Quick, test_cell_ops);
    ("cell padding", `Quick, test_cell_padding_separates_lines);
    ("cell costed", `Quick, test_cell_costed_under_engine);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prng_uniform_prop;
        cache_lru_model_prop;
        engine_progress_prop;
        hierarchy_writer_owns_prop;
      ]

let () = Alcotest.run "engine" [ ("engine", suite) ]
