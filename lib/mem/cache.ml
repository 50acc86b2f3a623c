type t = {
  p : Params.cache;
  sets : int;
  (* line size and set count are powers of two (Params.validate_cache),
     so an address splits into line, set and tag with shifts and a mask *)
  line_shift : int;
  set_shift : int;
  tags : int array; (* sets * assoc; -1 = invalid *)
  dirty : bool array;
  repl : Replacement.t array; (* one policy state per set *)
  mutable n_access : int;
  mutable n_miss : int;
  mutable n_wb : int;
}

type result = { hit : bool; fill : bool; writeback : bool; evicted_line : int option }

let create p =
  Params.validate_cache p;
  let sets = p.Params.c_size / p.Params.c_line / p.Params.c_assoc in
  let ways = sets * p.Params.c_assoc in
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  {
    p;
    sets;
    line_shift = log2 p.Params.c_line;
    set_shift = log2 sets;
    tags = Array.make ways (-1);
    dirty = Array.make ways false;
    repl =
      Array.init sets (fun _ ->
          Replacement.create p.Params.c_policy ~ways:p.Params.c_assoc);
    n_access = 0;
    n_miss = 0;
    n_wb = 0;
  }

let params t = t.p

let access t ~addr ~write =
  t.n_access <- t.n_access + 1;
  let line = addr lsr t.line_shift in
  let set = line land (t.sets - 1) in
  let tag = line lsr t.set_shift in
  let base = set * t.p.Params.c_assoc in
  let assoc = t.p.Params.c_assoc in
  let repl = t.repl.(set) in
  (* look for a hit *)
  let way = ref (-1) in
  for i = base to base + assoc - 1 do
    if t.tags.(i) = tag then way := i
  done;
  if !way >= 0 then begin
    Replacement.touch repl ~way:(!way - base);
    if write then t.dirty.(!way) <- true;
    { hit = true; fill = false; writeback = false; evicted_line = None }
  end
  else begin
    t.n_miss <- t.n_miss + 1;
    (* choose victim: lowest-index invalid way; only a full set consults
       the replacement policy *)
    let victim = ref (-1) in
    (try
       for i = base to base + assoc - 1 do
         if t.tags.(i) = -1 then begin
           victim := i;
           raise Exit
         end
       done
     with Exit -> ());
    if !victim < 0 then victim := base + Replacement.victim repl;
    let had_line = t.tags.(!victim) <> -1 in
    let wb = had_line && t.dirty.(!victim) in
    if wb then t.n_wb <- t.n_wb + 1;
    let evicted_line =
      if had_line then Some ((t.tags.(!victim) * t.sets) + set) else None
    in
    t.tags.(!victim) <- tag;
    t.dirty.(!victim) <- write;
    Replacement.fill repl ~way:(!victim - base);
    { hit = false; fill = true; writeback = wb; evicted_line }
  end

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  Array.iter Replacement.reset t.repl;
  t.n_access <- 0;
  t.n_miss <- 0;
  t.n_wb <- 0

let accesses t = t.n_access
let misses t = t.n_miss

let miss_ratio t =
  if t.n_access = 0 then 0.0
  else float_of_int t.n_miss /. float_of_int t.n_access

let writebacks t = t.n_wb
