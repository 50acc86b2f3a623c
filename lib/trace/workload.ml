type t = {
  name : string;
  regions : Region.t list;
  trace : Trace.t;
  cpu_ops : int;
}

let access_count t = Trace.length t.trace

let concat ~name = function
  | [] -> invalid_arg "Workload.concat: empty list"
  | first :: rest as all ->
    List.iter
      (fun w ->
        if w.regions <> first.regions then
          invalid_arg "Workload.concat: region tables differ")
      rest;
    let trace =
      Trace.create
        ~capacity:(List.fold_left (fun a w -> a + Trace.length w.trace) 0 all)
        ()
    in
    List.iter
      (fun w ->
        Trace.iter_packed w.trace ~f:(fun ~addr ~size ~kind ~region ->
            Trace.add trace ~addr ~size ~kind ~region))
      all;
    {
      name;
      regions = first.regions;
      trace;
      cpu_ops = List.fold_left (fun a w -> a + w.cpu_ops) 0 all;
    }

(* Regions are replayed in table order by every consumer, so the region
   list is canonical as-is; the trace itself is folded to its FNV-1a
   content hash rather than inlined.  O(trace length) — callers that
   evaluate one workload many times should compute this once. *)
let fingerprint_parts ~name ~length ~hash ~cpu_ops ~regions =
  let region (r : Region.t) =
    Printf.sprintf "%d:%s:%d:%d:%d:%s" r.Region.id r.Region.name r.Region.base
      r.Region.size r.Region.elem_size
      (Region.pattern_to_string r.Region.hint)
  in
  Printf.sprintf "wl:%s;n=%d;h=%x;ops=%d;r=%s" name length hash cpu_ops
    (String.concat "," (List.map region regions))

let fingerprint t =
  fingerprint_parts ~name:t.name ~length:(Trace.length t.trace)
    ~hash:(Trace.content_hash t.trace) ~cpu_ops:t.cpu_ops ~regions:t.regions

type streamed = {
  s_name : string;
  s_regions : Region.t list;
  s_cpu_ops : int;
  s_stream : Trace_stream.t;
  mutable s_fp : string option;
}

let streamed ~name ~regions ~cpu_ops stream =
  { s_name = name; s_regions = regions; s_cpu_ops = cpu_ops;
    s_stream = stream; s_fp = None }

(* The stream hashes with the same FNV-1a fold as Trace.content_hash,
   so this fingerprint equals the [fingerprint] of the same workload
   held in memory, without ever materialising the trace.  Memoised: hashing reads the whole
   stream, and the eval cache asks for the fingerprint repeatedly. *)
let streamed_fingerprint s =
  match s.s_fp with
  | Some fp -> fp
  | None ->
    let fp =
      fingerprint_parts ~name:s.s_name
        ~length:(Trace_stream.length s.s_stream)
        ~hash:(Trace_stream.content_hash s.s_stream)
        ~cpu_ops:s.s_cpu_ops ~regions:s.s_regions
    in
    s.s_fp <- Some fp;
    fp

let region_by_name t name =
  match List.find_opt (fun r -> r.Region.name = name) t.regions with
  | Some r -> r
  | None -> raise Not_found

module Emitter = struct
  type e = { trace : Trace.t; mutable cpu_ops : int }

  let create () = { trace = Trace.create ~capacity:65536 (); cpu_ops = 0 }

  let clamp_size s = if s = 1 || s = 2 || s = 4 || s = 8 then s else 4

  let read e (r : Region.t) i =
    Trace.add e.trace ~addr:(Region.elem_addr r i)
      ~size:(clamp_size r.elem_size) ~kind:Access.Read ~region:r.id

  let write e (r : Region.t) i =
    Trace.add e.trace ~addr:(Region.elem_addr r i)
      ~size:(clamp_size r.elem_size) ~kind:Access.Write ~region:r.id

  let byte_access e (r : Region.t) ~byte_off ~size ~kind =
    let addr = r.base + byte_off in
    if byte_off < 0 || byte_off + size > r.size then
      invalid_arg
        (Printf.sprintf "Emitter: byte access outside region %s" r.name);
    Trace.add e.trace ~addr ~size ~kind ~region:r.id

  let read_bytes e r ~byte_off ~size =
    byte_access e r ~byte_off ~size ~kind:Access.Read

  let write_bytes e r ~byte_off ~size =
    byte_access e r ~byte_off ~size ~kind:Access.Write

  let ops e n = e.cpu_ops <- e.cpu_ops + max 0 n

  let trace_length e = Trace.length e.trace

  let finish e ~name ~regions =
    { name; regions; trace = e.trace; cpu_ops = e.cpu_ops }
end
