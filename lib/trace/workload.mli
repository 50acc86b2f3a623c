(** A workload: named regions plus the memory trace an instrumented
    kernel produced over them.

    This is the unit of input to the whole exploration flow — the
    stand-in for "the application in C" of the paper. *)

type t = {
  name : string;
  regions : Region.t list;
  trace : Trace.t;
  cpu_ops : int;
      (** number of non-memory CPU operations the kernel performed,
          used to interleave compute cycles between accesses in the
          cycle simulator *)
}

val access_count : t -> int

val concat : name:string -> t list -> t
(** Multi-phase workload: run the given workloads' traces back to back.
    All inputs must share the same region table (same ids, names and
    extents) — i.e. be instances of the same kernel.
    @raise Invalid_argument on an empty list or mismatched regions. *)

val fingerprint : t -> string
(** Canonical content fingerprint: name, trace length, trace content
    hash (see {!Trace.content_hash}), cpu op count, and the full region
    table.  Two workloads with equal fingerprints behave identically
    under estimation and simulation (up to hash collision on the trace
    stream).  O(trace length) — compute once per workload, not per
    evaluation. *)

val fingerprint_parts :
  name:string ->
  length:int ->
  hash:int ->
  cpu_ops:int ->
  regions:Region.t list ->
  string
(** The fingerprint format itself, usable from any trace source that
    knows its length and content hash.  [fingerprint t] is
    [fingerprint_parts] applied to [t]'s fields. *)

val region_by_name : t -> string -> Region.t
(** @raise Not_found when the workload has no such region. *)

(** {2 Streamed workloads}

    A workload whose trace lives behind a {!Trace_stream.t} — possibly
    a file never loaded into memory.  The cycle simulator replays it
    directly ({!Mx_sim.Cycle_sim.run_stream}); the fingerprint is
    computed by streaming, and matches the materialised workload's
    {!fingerprint} exactly, so evaluation caches are shared across
    in-memory, text-loaded and binary-streamed paths. *)

type streamed = {
  s_name : string;
  s_regions : Region.t list;
  s_cpu_ops : int;
  s_stream : Trace_stream.t;
  mutable s_fp : string option;  (** memoised {!streamed_fingerprint} *)
}

val streamed :
  name:string ->
  regions:Region.t list ->
  cpu_ops:int ->
  Trace_stream.t ->
  streamed

val streamed_fingerprint : streamed -> string
(** Equal to the {!fingerprint} of the same workload held in memory,
    computed without materialising the trace.  Reads the whole stream
    once; memoised. *)

(** Instrumentation helper for kernels: counts CPU work and appends
    element-level reads/writes to the trace. *)
module Emitter : sig
  type e

  val create : unit -> e

  val read : e -> Region.t -> int -> unit
  (** [read e r i] records a read of element [i] of region [r] at the
      region's natural element width. *)

  val write : e -> Region.t -> int -> unit

  val read_bytes : e -> Region.t -> byte_off:int -> size:int -> unit
  (** Sub-element access at an explicit byte offset. *)

  val write_bytes : e -> Region.t -> byte_off:int -> size:int -> unit

  val ops : e -> int -> unit
  (** [ops e n] records [n] units of pure CPU work (ALU/branch). *)

  val trace_length : e -> int
  (** Number of accesses emitted so far — lets kernels run "until the
      trace is big enough". *)

  val finish : e -> name:string -> regions:Region.t list -> t
end
