(* A chunked access source: the one interface behind which an
   in-memory Trace.t and a file-backed binary trace look identical to
   the cycle simulator.  Chunks are fetched on demand, so a consumer
   that seeks (time-sampled simulation) never pays for the spans it
   skips. *)

type chunk = {
  c_first : int;
  c_len : int;
  c_off : int;
  c_addrs : int array;
  c_metas : int array;
}

type io_stats = {
  mutable bytes_read : int;
  mutable chunks_fetched : int;
  mutable chunks_seeked : int;
  mutable chunks_skipped : int;
}

type t = {
  length : int;
  chunk_cap : int;
  starts : int array;  (* starts.(i) = global index of chunk i's first access *)
  fetch : int -> chunk;
  chunk_bytes : int -> int;  (* encoded size; 0 for in-memory sources *)
  file_backed : bool;
  stats : io_stats;
  mutable last_chunk : int;
  mutable closed : bool;
  close_fn : unit -> unit;
}

let make ~length ~chunk_cap ~counts ~fetch ~chunk_bytes ~file_backed ~close ()
    =
  let n = Array.length counts in
  let starts = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    starts.(i + 1) <- starts.(i) + counts.(i)
  done;
  if starts.(n) <> length then
    invalid_arg "Trace_stream.make: chunk counts do not sum to the length";
  {
    length;
    chunk_cap;
    starts;
    fetch;
    chunk_bytes;
    file_backed;
    stats =
      { bytes_read = 0; chunks_fetched = 0; chunks_seeked = 0;
        chunks_skipped = 0 };
    last_chunk = -1;
    closed = false;
    close_fn = close;
  }

let length t = t.length
let chunk_cap t = t.chunk_cap
let chunk_count t = Array.length t.starts - 1

let chunk_start t i =
  if i < 0 || i >= chunk_count t then
    invalid_arg "Trace_stream.chunk_start: chunk index out of bounds";
  t.starts.(i)

let chunk_length t i =
  if i < 0 || i >= chunk_count t then
    invalid_arg "Trace_stream.chunk_length: chunk index out of bounds";
  t.starts.(i + 1) - t.starts.(i)

let io_stats t =
  { t.stats with bytes_read = t.stats.bytes_read }

(* The streaming counters obey the metrics determinism contract: how
   many chunks a run fetches/skips depends only on the trace, the
   chunking and the sampling windows — never on domain scheduling. *)
let note_io ~bytes ~seeked ~skipped =
  let m = Mx_util.Metrics.global in
  if Mx_util.Metrics.is_on m then begin
    if bytes > 0 then Mx_util.Metrics.incr m ~by:bytes "trace.io.bytes_read";
    if seeked > 0 then
      Mx_util.Metrics.incr m ~by:seeked "trace.io.chunks_seeked";
    if skipped > 0 then
      Mx_util.Metrics.incr m ~by:skipped "trace.io.chunks_skipped"
  end

(* Called by the file-backed constructor for header/footer reads. *)
let account_raw_read t bytes =
  t.stats.bytes_read <- t.stats.bytes_read + bytes;
  if t.file_backed then note_io ~bytes ~seeked:0 ~skipped:0

let get_chunk t i =
  if t.closed then invalid_arg "Trace_stream.get_chunk: stream is closed";
  if i < 0 || i >= chunk_count t then
    invalid_arg "Trace_stream.get_chunk: chunk index out of bounds";
  if t.file_backed then begin
    let bytes = t.chunk_bytes i in
    let seeked = if i <> t.last_chunk + 1 then 1 else 0 in
    let skipped = if i > t.last_chunk + 1 then i - t.last_chunk - 1 else 0 in
    t.stats.bytes_read <- t.stats.bytes_read + bytes;
    t.stats.chunks_fetched <- t.stats.chunks_fetched + 1;
    t.stats.chunks_seeked <- t.stats.chunks_seeked + seeked;
    t.stats.chunks_skipped <- t.stats.chunks_skipped + skipped;
    note_io ~bytes ~seeked ~skipped
  end
  else t.stats.chunks_fetched <- t.stats.chunks_fetched + 1;
  t.last_chunk <- i;
  t.fetch i

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.close_fn ()
  end

let iter_chunks t ~f =
  for i = 0 to chunk_count t - 1 do
    f (get_chunk t i)
  done

let iter_packed t ~f =
  iter_chunks t ~f:(fun c ->
      for k = c.c_off to c.c_off + c.c_len - 1 do
        let meta = c.c_metas.(k) in
        f ~addr:c.c_addrs.(k) ~size:(Trace.meta_size meta)
          ~kind:(Trace.meta_kind meta)
          ~region:(Trace.meta_region meta)
      done)

let content_hash t =
  let h = ref Trace.hash_basis in
  iter_chunks t ~f:(fun c ->
      for k = c.c_off to c.c_off + c.c_len - 1 do
        h := Trace.hash_step !h ~addr:c.c_addrs.(k) ~meta:c.c_metas.(k)
      done);
  Trace.hash_finish !h

let of_trace ?(chunk_cap = Trace_codec.default_chunk_cap) trace =
  if chunk_cap <= 0 then
    invalid_arg "Trace_stream.of_trace: non-positive chunk capacity";
  let n = Trace.length trace in
  let n_chunks = (n + chunk_cap - 1) / chunk_cap in
  let counts =
    Array.init n_chunks (fun i ->
        min chunk_cap (n - (i * chunk_cap)))
  in
  let addrs, metas = Trace.backing trace in
  let fetch i =
    {
      c_first = i * chunk_cap;
      c_len = counts.(i);
      c_off = i * chunk_cap;
      c_addrs = addrs;
      c_metas = metas;
    }
  in
  make ~length:n ~chunk_cap ~counts ~fetch
    ~chunk_bytes:(fun _ -> 0)
    ~file_backed:false
    ~close:(fun () -> ())
    ()
