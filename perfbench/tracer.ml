(* Spans of the traced run, kept in memory and written out when the run
   ends.  A span has a name, a parent span, the id of the operation it
   belongs to (-1 outside operations), the simulated thread that ran it,
   and a start and end on both clocks: host nanoseconds since the tracer
   was created and simulated cycles.  [interleaved] marks spans whose host
   time can include other simulated threads' work: with more than one
   simulated thread, a thread that yields inside a span lets the others
   run on the same host thread before it resumes.

   Every span feeds the per-name aggregates; only the first [cap] are kept
   for the written file, which records how many there were. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  parent : int;
  op : int;
  tid : int;
  interleaved : bool;
  host_start : int;
  host_end : int;
  sim_start : int;
  sim_end : int;
}

type agg = {
  mutable calls : int;
  mutable host_total : int;
  mutable host_self : int;  (** total minus the host time of child spans *)
}

(* Spans kept for the written file; the aggregates see every span. *)
let cap = 200_000

type t = {
  origin : int;
  mutable next_id : int;
  mutable kept : span list;  (** newest first *)
  mutable nkept : int;
  aggs : (string, agg) Hashtbl.t;
}

let create () =
  {
    origin = now_ns ();
    next_id = 0;
    kept = [];
    nkept = 0;
    aggs = Hashtbl.create 16;
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let agg t name =
  match Hashtbl.find_opt t.aggs name with
  | Some a -> a
  | None ->
      let a = { calls = 0; host_total = 0; host_self = 0 } in
      Hashtbl.add t.aggs name a;
      a

(* Record a finished span.  [child_host] is the host time its child spans
   covered, so self time = duration - child_host. *)
let record t ~id ~name ~parent ~op ~tid ~interleaved ~host_start ~host_end
    ~sim_start ~sim_end ~child_host =
  let a = agg t name in
  let dur = host_end - host_start in
  a.calls <- a.calls + 1;
  a.host_total <- a.host_total + dur;
  a.host_self <- a.host_self + dur - child_host;
  if t.nkept < cap then begin
    t.kept <-
      {
        id;
        name;
        parent;
        op;
        tid;
        interleaved;
        host_start = host_start - t.origin;
        host_end = host_end - t.origin;
        sim_start;
        sim_end;
      }
      :: t.kept;
    t.nkept <- t.nkept + 1
  end

(* A span around [f], for the benchmark's own structural boundaries (cell,
   set-up steps, measured window).  [sim] reads the simulated clock. *)
let around t ~name ~parent ~sim f =
  let id = fresh_id t in
  let h0 = now_ns () and s0 = sim () in
  let finish () =
    record t ~id ~name ~parent ~op:(-1) ~tid:(-1) ~interleaved:false
      ~host_start:h0 ~host_end:(now_ns ()) ~sim_start:s0 ~sim_end:(sim ())
      ~child_host:0
  in
  match f id with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let find t name = Hashtbl.find_opt t.aggs name

(* Start per-name aggregates afresh (each cell reads its own); kept spans
   are unaffected. *)
let clear_aggs t = Hashtbl.reset t.aggs

let write t path =
  let oc = open_out path in
  Printf.fprintf oc
    "# spans kept: %d of %d (host ns from run start; sim in cycles)\n"
    t.nkept t.next_id;
  output_string oc
    "id,parent,op,tid,name,host_start_ns,host_end_ns,sim_start,sim_end,\
     interleaved\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d,%d,%d,%d,%s,%d,%d,%d,%d,%b\n" s.id s.parent s.op
        s.tid s.name s.host_start s.host_end s.sim_start s.sim_end
        s.interleaved)
    (List.rev t.kept);
  close_out oc
