(* One set-associative cache level with LRU replacement.

   The cache tracks which line-sized blocks are present; it stores no data
   (the simulated memory itself lives in {!Oamem_vmem}).  Lookups and fills
   are O(associativity) over small int arrays, so the per-access overhead of
   the simulation stays low. *)

type t = {
  name : string;
  sets : int;
  ways : int;
  lines : int array;
      (* sets * ways interleaved entries: block tag at [2i] (-1 = invalid),
         LRU timestamp at [2i + 1].  One layout decision, two wins: a way
         scan and its victim scan walk one contiguous run of host
         cachelines instead of two parallel arrays, which matters for the
         L2/L3 instances whose separate tag and stamp arrays each spilled
         out of the host cache on miss-heavy (no-reclaim) workloads. *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
}

type stats = { hits : int; misses : int; invalidations : int }

let create ~name ~sets ~ways =
  if sets <= 0 || ways <= 0 then invalid_arg "Cache.create";
  if sets land (sets - 1) <> 0 then
    invalid_arg "Cache.create: sets must be a power of two";
  let lines = Array.make (2 * sets * ways) 0 in
  let rec invalidate_tags i =
    if i < Array.length lines then begin
      lines.(i) <- -1;
      invalidate_tags (i + 2)
    end
  in
  invalidate_tags 0;
  {
    name;
    sets;
    ways;
    lines;
    tick = 0;
    hits = 0;
    misses = 0;
    invalidations = 0;
  }

let capacity_lines t = t.sets * t.ways
let set_of_block t block = block land (t.sets - 1)

(* The lookup loop is a top-level function taking every datum as an
   argument: a local recursive function capturing its environment would
   allocate a closure per access, and this is the simulator's innermost hot
   path.  Indices are in bounds by construction ([set_of_block] masks with
   [sets - 1], ways are fixed), so the loop uses unchecked array accesses.
   [base] is an index into [lines] (already doubled); ways step by 2.

   One scan over ways [i..ways-1] both looks [block] up and picks the
   victim should it miss.  It returns the way holding [block] (> 0), or
   [-1 - v] for victim way [v]: the last invalid way if there is one, else
   the way with the smallest LRU stamp.  [best] is the victim among ways
   [0..i-1] and [key] its stamp, or [min_int] when [best] is invalid, so
   that no valid way can displace an invalid one. *)
let rec find_or_victim lines base ways block best key i =
  if i >= ways then -1 - best
  else
    let tag = Array.unsafe_get lines (base + (2 * i)) in
    if tag = block then i
    else if tag = -1 then find_or_victim lines base ways block i min_int (i + 1)
    else
      let stamp = Array.unsafe_get lines (base + (2 * i) + 1) in
      if stamp < key then find_or_victim lines base ways block i stamp (i + 1)
      else find_or_victim lines base ways block best key (i + 1)

(* Returns [true] on hit.  On miss the block is installed, evicting the
   least-recently-used way of its set.

   The touched block is kept at way 0 of its set (move-to-front), so a hit
   on a recently-used block is a single compare instead of a scan over the
   associativity.  Way positions are not simulator-observable: every lookup
   matches any way, and victim choice keys on validity and on LRU stamps
   (distinct by construction — each valid way's stamp is the unique tick of
   its last touch), never on position — so the swap cannot change which
   blocks are resident, hit, miss or get evicted.  A hit at way [j] and a
   miss evicting way [j] both end the same way: the touched block moves to
   way 0 and the old way 0 moves to way [j]. *)
let access t block =
  let base = 2 * set_of_block t block * t.ways in
  t.tick <- t.tick + 1;
  let lines = t.lines in
  let t0 = Array.unsafe_get lines base in
  if t0 = block then begin
    t.hits <- t.hits + 1;
    Array.unsafe_set lines (base + 1) t.tick;
    true
  end
  else begin
    let s0 = Array.unsafe_get lines (base + 1) in
    let r =
      find_or_victim lines base t.ways block 0
        (if t0 = -1 then min_int else s0)
        1
    in
    let hit = r > 0 in
    let j = if hit then r else -1 - r in
    if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1;
    Array.unsafe_set lines base block;
    Array.unsafe_set lines (base + 1) t.tick;
    if j > 0 then begin
      Array.unsafe_set lines (base + (2 * j)) t0;
      Array.unsafe_set lines (base + (2 * j) + 1) s0
    end;
    hit
  end

(* Probe without installing or updating LRU state. *)
let present t block =
  let base = 2 * set_of_block t block * t.ways in
  let rec find i =
    if i >= t.ways then false
    else t.lines.(base + (2 * i)) = block || find (i + 1)
  in
  find 0

let invalidate t block =
  let base = 2 * set_of_block t block * t.ways in
  let rec find i =
    if i >= t.ways then ()
    else if t.lines.(base + (2 * i)) = block then begin
      t.lines.(base + (2 * i)) <- -1;
      t.invalidations <- t.invalidations + 1
    end
    else find (i + 1)
  in
  find 0

let clear t =
  let rec invalidate_tags i =
    if i < Array.length t.lines then begin
      t.lines.(i) <- -1;
      invalidate_tags (i + 2)
    end
  in
  invalidate_tags 0;
  t.tick <- 0

let stats (t : t) =
  { hits = t.hits; misses = t.misses; invalidations = t.invalidations }

let reset_stats (t : t) =
  t.hits <- 0;
  t.misses <- 0;
  t.invalidations <- 0

let pp_stats ppf (s : stats) =
  Fmt.pf ppf "hits=%d misses=%d inval=%d" s.hits s.misses s.invalidations
