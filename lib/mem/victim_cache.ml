type t = {
  p : Params.victim;
  lines : int array; (* -1 = empty *)
  stamps : int array;
  mutable clock : int;
  mutable n_probe : int;
  mutable n_hit : int;
}

let create p =
  Params.validate_victim p;
  {
    p;
    lines = Array.make p.Params.v_entries (-1);
    stamps = Array.make p.Params.v_entries 0;
    clock = 0;
    n_probe = 0;
    n_hit = 0;
  }

let params t = t.p

let probe t ~line =
  t.n_probe <- t.n_probe + 1;
  let n = Array.length t.lines in
  let i = ref 0 and found = ref false in
  while (not !found) && !i < n do
    if t.lines.(!i) = line then begin
      found := true;
      t.lines.(!i) <- -1 (* the line returns to the main cache *)
    end
    else incr i
  done;
  if !found then t.n_hit <- t.n_hit + 1;
  !found

let insert t ~line =
  t.clock <- t.clock + 1;
  (* prefer the first empty slot, else evict the LRU (lowest index on
     ties) *)
  let n = Array.length t.lines in
  let victim = ref 0 and empty = ref (-1) in
  for i = n - 1 downto 0 do
    if t.lines.(i) = -1 then empty := i
  done;
  if !empty >= 0 then victim := !empty
  else
    for i = 1 to n - 1 do
      if t.stamps.(i) < t.stamps.(!victim) then victim := i
    done;
  t.lines.(!victim) <- line;
  t.stamps.(!victim) <- t.clock

let hits t = t.n_hit
let probes t = t.n_probe

let reset t =
  Array.fill t.lines 0 (Array.length t.lines) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.clock <- 0;
  t.n_probe <- 0;
  t.n_hit <- 0
