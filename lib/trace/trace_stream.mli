(** A chunked, seekable stream of packed accesses — the abstraction
    that lets {!Mx_sim.Cycle_sim} replay a trace without requiring it
    in memory.

    Two implementations exist: {!of_trace} wraps an in-memory
    {!Trace.t} (zero-copy — chunks alias the trace's backing arrays),
    and {!Trace_io.open_stream} reads the chunked binary format
    decoding one chunk at a time.  Both expose the same chunk
    geometry, so a consumer written against this interface produces
    byte-identical results on either.

    {b Streaming contract.}  Chunks partition the access stream in
    order: chunk [i] covers global indices [chunk_start i ..
    chunk_start i + chunk_length i - 1].  [get_chunk] may be called in
    any order and any number of times; each call re-fetches (the
    stream does not cache decoded chunks).  A consumer that skips
    chunks skips their I/O and decode cost entirely — the basis of the
    sampling-seek guarantee in {!Mx_sim.Cycle_sim}. *)

type chunk = {
  c_first : int;  (** global index of the chunk's first access *)
  c_len : int;  (** number of accesses in the chunk *)
  c_off : int;  (** offset of the first access within the arrays *)
  c_addrs : int array;
  c_metas : int array;  (** packed {!Trace} metadata words *)
}
(** A decoded chunk.  Valid entries are indices [c_off .. c_off +
    c_len - 1] of [c_addrs]/[c_metas]; for in-memory streams the
    arrays alias the whole trace and must not be mutated. *)

type io_stats = {
  mutable bytes_read : int;  (** file bytes read (header, footer, chunks) *)
  mutable chunks_fetched : int;  (** [get_chunk] calls *)
  mutable chunks_seeked : int;  (** fetches that were not sequential *)
  mutable chunks_skipped : int;  (** chunks jumped over by forward seeks *)
}

type t

val make :
  length:int ->
  chunk_cap:int ->
  counts:int array ->
  fetch:(int -> chunk) ->
  chunk_bytes:(int -> int) ->
  file_backed:bool ->
  close:(unit -> unit) ->
  unit ->
  t
(** Generic constructor used by the implementations; [counts] must sum
    to [length].  [chunk_bytes i] is the encoded size of chunk [i]
    (for I/O accounting; return 0 for in-memory sources). *)

val length : t -> int
val chunk_cap : t -> int
(** Maximum accesses per chunk (every chunk but the last is full). *)

val chunk_count : t -> int
val chunk_start : t -> int -> int
val chunk_length : t -> int -> int

val get_chunk : t -> int -> chunk
(** Fetch (decode) one chunk.  File-backed streams record the read in
    {!io_stats} and, when the global registry is enabled, in the
    [trace.io.{bytes_read,chunks_seeked,chunks_skipped}] counters —
    all schedule-invariant, so they fall under the metrics determinism
    contract.  @raise Invalid_argument out of bounds or after
    {!close}. *)

val iter_chunks : t -> f:(chunk -> unit) -> unit
val iter_packed :
  t -> f:(addr:int -> size:int -> kind:Access.kind -> region:int -> unit) -> unit
(** Sequential whole-stream iteration (fetches every chunk). *)

val content_hash : t -> int
(** Equals {!Trace.content_hash} of the materialised trace, by
    construction (same FNV-1a fold) — what makes a fingerprint
    computed from a stream interchangeable with one computed from a
    {!Trace.t}.  Reads the whole stream. *)

val io_stats : t -> io_stats
(** Snapshot of the stream's I/O counters (zeros for in-memory
    streams except [chunks_fetched]). *)

val account_raw_read : t -> int -> unit
(** Record non-chunk file bytes (header/footer) — used by the
    file-backed constructor. *)

val close : t -> unit
(** Release the underlying file handle; idempotent.  In-memory streams
    ignore it. *)

val of_trace : ?chunk_cap:int -> Trace.t -> t
(** Zero-copy in-memory stream over a trace, chunked at [chunk_cap]
    (default {!Trace_codec.default_chunk_cap}) — the same default
    geometry as the binary format, so in-memory and file-backed replay
    visit identical chunk boundaries.
    @raise Invalid_argument on a non-positive [chunk_cap]. *)
