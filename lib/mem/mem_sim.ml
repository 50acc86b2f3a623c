type serving = By_cache | By_sram | By_sbuf | By_lldma | By_dram_direct

type outcome = {
  serving : serving;
  hit : bool;
  dram_bytes : int;
  dram_txns : int;
  dram_critical : bool;
  l2_bytes : int;
  l2_txns : int;
  l2_critical : bool;
  extra_latency : int;
  extra_energy : float;
}

type t = {
  arch : Mem_arch.t;
  cache : Cache.t option;
  l2 : Cache.t option;
  sbuf : Stream_buffer.t option;
  lldma : Lldma.t option;
  victim : Victim_cache.t option;
  wbuf : Write_buffer.t option;
  dram : Dram.t;
  (* counters indexed by serving (5 classes) *)
  cpu_acc : int array;
  cpu_cnt : int array;
  dram_acc : int array;
  dram_txn : int array;
  miss_cnt : int array;
  mutable n_access : int;
  mutable n_hit : int;
  mutable n_demand_miss : int;
  mutable dram_total : int;
  mutable n_victim_hit : int;
  mutable n_wbuf_stall : int;
  mutable n_l2_access : int;
  mutable n_l2_hit : int;
  mutable l2_bytes_acc : int;
  mutable l2_txns_acc : int;
}

let serving_index = function
  | By_cache -> 0
  | By_sram -> 1
  | By_sbuf -> 2
  | By_lldma -> 3
  | By_dram_direct -> 4

let all_servings = [ By_cache; By_sram; By_sbuf; By_lldma; By_dram_direct ]

let check_regions (arch : Mem_arch.t) regions =
  List.iter
    (fun (r : Mx_trace.Region.t) ->
      if r.id >= Array.length arch.Mem_arch.bindings then
        invalid_arg "Mem_sim.create: region id outside binding table")
    regions

(* Fresh state routing through [arch]'s bindings but instantiating only
   the given modules: the whole architecture for [create], one module
   chain for [run_all]. *)
let instantiate (arch : Mem_arch.t) ~cache ~l2 ~sbuf ~lldma ~victim ~wbuf =
  {
    arch;
    cache = Option.map Cache.create cache;
    l2 = Option.map Cache.create l2;
    sbuf = Option.map Stream_buffer.create sbuf;
    lldma = Option.map Lldma.create lldma;
    victim = Option.map Victim_cache.create victim;
    wbuf = Option.map Write_buffer.create wbuf;
    dram = Dram.create Module_lib.default_dram;
    cpu_acc = Array.make 5 0;
    cpu_cnt = Array.make 5 0;
    dram_acc = Array.make 5 0;
    dram_txn = Array.make 5 0;
    miss_cnt = Array.make 5 0;
    n_access = 0;
    n_hit = 0;
    n_demand_miss = 0;
    dram_total = 0;
    n_victim_hit = 0;
    n_wbuf_stall = 0;
    n_l2_access = 0;
    n_l2_hit = 0;
    l2_bytes_acc = 0;
    l2_txns_acc = 0;
  }

let create (arch : Mem_arch.t) ~regions =
  check_regions arch regions;
  instantiate arch ~cache:arch.Mem_arch.cache ~l2:arch.Mem_arch.l2
    ~sbuf:arch.Mem_arch.sbuf ~lldma:arch.Mem_arch.lldma
    ~victim:arch.Mem_arch.victim ~wbuf:arch.Mem_arch.wbuf

let arch t = t.arch
let dram t = t.dram

let record t serving ~size ~(o : outcome) =
  let i = serving_index serving in
  t.cpu_acc.(i) <- t.cpu_acc.(i) + size;
  t.cpu_cnt.(i) <- t.cpu_cnt.(i) + 1;
  t.dram_acc.(i) <- t.dram_acc.(i) + o.dram_bytes;
  t.dram_txn.(i) <- t.dram_txn.(i) + o.dram_txns;
  t.n_access <- t.n_access + 1;
  if o.hit then t.n_hit <- t.n_hit + 1;
  if o.dram_critical then begin
    t.n_demand_miss <- t.n_demand_miss + 1;
    t.miss_cnt.(i) <- t.miss_cnt.(i) + 1
  end;
  t.l2_bytes_acc <- t.l2_bytes_acc + o.l2_bytes;
  t.l2_txns_acc <- t.l2_txns_acc + o.l2_txns;
  t.dram_total <- t.dram_total + o.dram_bytes

(* Built in one allocation: a miss is a third of the accesses of a
   typical cache chain. *)
let outcome serving ~hit ~dram_bytes ~dram_txns ~dram_critical ~l2_bytes
    ~l2_txns ~l2_critical ~extra_latency ~extra_energy =
  { serving; hit; dram_bytes; dram_txns; dram_critical; l2_bytes; l2_txns;
    l2_critical; extra_latency; extra_energy }

let base serving ~hit ~dram_bytes ~dram_txns ~dram_critical =
  outcome serving ~hit ~dram_bytes ~dram_txns ~dram_critical ~l2_bytes:0
    ~l2_txns:0 ~l2_critical:false ~extra_latency:0 ~extra_energy:0.0

(* The two most frequent outcomes, shared so a hit allocates nothing *)
let sram_hit =
  base By_sram ~hit:true ~dram_bytes:0 ~dram_txns:0 ~dram_critical:false

let cache_hit =
  base By_cache ~hit:true ~dram_bytes:0 ~dram_txns:0 ~dram_critical:false

let access t ~now ~addr ~size ~write ~region =
  let binding = Mem_arch.binding_of t.arch ~region in
  let o =
    match binding with
    | Mem_arch.To_sram -> sram_hit
    | Mem_arch.To_sbuf ->
      let sb = Option.get t.sbuf in
      let r = Stream_buffer.access sb ~addr ~write in
      let line = (Stream_buffer.params sb).Params.sb_line in
      if r.Stream_buffer.hit then
        base By_sbuf ~hit:true
          ~dram_bytes:(r.Stream_buffer.fetched_lines * line)
          ~dram_txns:(if r.Stream_buffer.fetched_lines > 0 then 1 else 0)
          ~dram_critical:false
      else
        base By_sbuf ~hit:false
          ~dram_bytes:(r.Stream_buffer.fetched_lines * line) ~dram_txns:1
          ~dram_critical:true
    | Mem_arch.To_lldma ->
      let ll = Option.get t.lldma in
      let r = Lldma.access ll ~now ~write in
      let elem = (Lldma.params ll).Params.ll_elem in
      if r.Lldma.hit then
        base By_lldma ~hit:true ~dram_bytes:(r.Lldma.fetched_elems * elem)
          ~dram_txns:(if r.Lldma.fetched_elems > 0 then 1 else 0)
          ~dram_critical:false
      else
        base By_lldma ~hit:false ~dram_bytes:(r.Lldma.fetched_elems * elem)
          ~dram_txns:r.Lldma.fetched_elems
          ~dram_critical:(r.Lldma.fetched_elems > 0)
    | Mem_arch.To_cache -> (
      match t.cache with
      | Some c -> (
        let r = Cache.access c ~addr ~write in
        let line = (Cache.params c).Params.c_line in
        (* clean evictions feed the victim buffer *)
        (match (t.victim, r.Cache.evicted_line) with
        | Some v, Some el when not r.Cache.writeback ->
          Victim_cache.insert v ~line:el
        | _ -> ());
        if r.Cache.hit then cache_hit
        else
          match t.victim with
          | Some v when Victim_cache.probe v ~line:(addr / line) ->
            (* conflict miss recovered on-chip: swap back, no DRAM *)
            t.n_victim_hit <- t.n_victim_hit + 1;
            outcome By_cache ~hit:true ~dram_bytes:0 ~dram_txns:0
              ~dram_critical:false ~l2_bytes:0 ~l2_txns:0 ~l2_critical:false
              ~extra_latency:(Victim_cache.params v).Params.v_latency
              ~extra_energy:Energy_model.victim_probe
          | victim_opt -> (
            let probe_energy =
              if victim_opt <> None then Energy_model.victim_probe else 0.0
            in
            let wb = if r.Cache.writeback then line else 0 in
            match t.l2 with
            | None ->
              outcome By_cache ~hit:false ~dram_bytes:(line + wb)
                ~dram_txns:(if r.Cache.writeback then 2 else 1)
                ~dram_critical:true ~l2_bytes:0 ~l2_txns:0 ~l2_critical:false
                ~extra_latency:0 ~extra_energy:probe_energy
            | Some l2 ->
              let l2_line = (Cache.params l2).Params.c_line in
              t.n_l2_access <- t.n_l2_access + 1;
              (* the dirty L1 line drains into the L2 *)
              let wb_dram_bytes = ref 0 and wb_dram_txns = ref 0 in
              (match (r.Cache.writeback, r.Cache.evicted_line) with
              | true, Some el ->
                let wr = Cache.access l2 ~addr:(el * line) ~write:true in
                if not wr.Cache.hit then begin
                  wb_dram_bytes := l2_line;
                  incr wb_dram_txns;
                  if wr.Cache.writeback then begin
                    wb_dram_bytes := !wb_dram_bytes + l2_line;
                    incr wb_dram_txns
                  end
                end
              | _ -> ());
              (* demand fill through the L2 *)
              let dr = Cache.access l2 ~addr ~write:false in
              let l2_energy =
                Energy_model.cache_access (Cache.params l2) ~write:false
              in
              if dr.Cache.hit then begin
                t.n_l2_hit <- t.n_l2_hit + 1;
                outcome By_cache ~hit:true ~dram_bytes:!wb_dram_bytes
                  ~dram_txns:!wb_dram_txns ~dram_critical:false
                  ~l2_bytes:(line + wb)
                  ~l2_txns:(if wb > 0 then 2 else 1)
                  ~l2_critical:true ~extra_latency:0
                  ~extra_energy:(probe_energy +. l2_energy)
              end
              else begin
                let dram = ref (l2_line + !wb_dram_bytes)
                and txns = ref (1 + !wb_dram_txns) in
                if dr.Cache.writeback then begin
                  dram := !dram + l2_line;
                  incr txns
                end;
                outcome By_cache ~hit:false ~dram_bytes:!dram ~dram_txns:!txns
                  ~dram_critical:true ~l2_bytes:(line + wb)
                  ~l2_txns:(if wb > 0 then 2 else 1)
                  ~l2_critical:true ~extra_latency:0
                  ~extra_energy:(probe_energy +. l2_energy)
              end))
      | None -> (
        (* no cache: direct off-chip access, optionally through the
           posted-write buffer *)
        match t.wbuf with
        | Some wb ->
          let line16 = addr / 16 in
          if write then (
            match Write_buffer.write wb ~now ~line:line16 with
            | `Absorbed | `Coalesced ->
              outcome By_dram_direct ~hit:false ~dram_bytes:size ~dram_txns:1
                ~dram_critical:false ~l2_bytes:0 ~l2_txns:0 ~l2_critical:false
                ~extra_latency:0 ~extra_energy:Energy_model.write_buffer_access
            | `Stall ->
              t.n_wbuf_stall <- t.n_wbuf_stall + 1;
              base By_dram_direct ~hit:false ~dram_bytes:size ~dram_txns:1
                ~dram_critical:true)
          else if Write_buffer.read_forward wb ~now ~line:line16 then
            outcome By_dram_direct ~hit:true ~dram_bytes:0 ~dram_txns:0
              ~dram_critical:false ~l2_bytes:0 ~l2_txns:0 ~l2_critical:false
              ~extra_latency:0 ~extra_energy:Energy_model.write_buffer_access
          else
            base By_dram_direct ~hit:false ~dram_bytes:size ~dram_txns:1
              ~dram_critical:true
        | None ->
          base By_dram_direct ~hit:false ~dram_bytes:size ~dram_txns:1
            ~dram_critical:true))
  in
  record t o.serving ~size ~o;
  o

type stats = {
  accesses : int;
  on_chip_hits : int;
  demand_misses : int;
  dram_bytes_total : int;
  cpu_bytes : serving -> int;
  cpu_accesses : serving -> int;
  dram_bytes_by : serving -> int;
  dram_txns_by : serving -> int;
  demand_misses_by : serving -> int;
  victim_hits : int;
  wbuf_stalls : int;
  l2_accesses : int;
  l2_hits : int;
  l2_bytes_total : int;
  l2_txns_total : int;
}

let snapshot t =
  let cpu = Array.copy t.cpu_acc and dr = Array.copy t.dram_acc in
  let cnt = Array.copy t.cpu_cnt and txn = Array.copy t.dram_txn in
  let mis = Array.copy t.miss_cnt in
  {
    accesses = t.n_access;
    on_chip_hits = t.n_hit;
    demand_misses = t.n_demand_miss;
    dram_bytes_total = t.dram_total;
    cpu_bytes = (fun s -> cpu.(serving_index s));
    cpu_accesses = (fun s -> cnt.(serving_index s));
    dram_bytes_by = (fun s -> dr.(serving_index s));
    dram_txns_by = (fun s -> txn.(serving_index s));
    demand_misses_by = (fun s -> mis.(serving_index s));
    victim_hits = t.n_victim_hit;
    wbuf_stalls = t.n_wbuf_stall;
    l2_accesses = t.n_l2_access;
    l2_hits = t.n_l2_hit;
    l2_bytes_total = t.l2_bytes_acc;
    l2_txns_total = t.l2_txns_acc;
  }

(* The one replay loop: route the accesses at trace positions [idx]
   (every position when absent), in order, access [i] at [~now:i]. *)
let replay ?idx t trace =
  let addrs, metas = Mx_trace.Trace.backing trace in
  let n =
    match idx with Some a -> Array.length a | None -> Mx_trace.Trace.length trace
  in
  for k = 0 to n - 1 do
    let i = match idx with Some a -> a.(k) | None -> k in
    let meta = metas.(i) in
    ignore
      (access t ~now:i ~addr:addrs.(i) ~size:(Mx_trace.Trace.meta_size meta)
         ~write:(Mx_trace.Trace.meta_kind meta = Mx_trace.Access.Write)
         ~region:(Mx_trace.Trace.meta_region meta))
  done;
  snapshot t

let run t trace = replay t trace

(* -- compositional sweep ------------------------------------------------- *)

(* The modules [access] touches for a region.  A chain reads no other
   chain's state and never the shared [Dram.t], so its sub-result depends
   only on its parameters and on the accesses of the regions bound to
   it, replayed at their original trace index (Lldma and Write_buffer
   read [now]).  A module whose [access] reads another chain's state
   must widen this key. *)
type chain =
  | Cache_chain of Params.cache * Params.victim option * Params.cache option
  | Sram_chain
  | Sbuf_chain of Params.stream_buffer
  | Lldma_chain of Params.lldma
  | Direct_chain of Params.write_buffer option

let chain_of (arch : Mem_arch.t) = function
  | Mem_arch.To_sram -> Sram_chain
  | Mem_arch.To_sbuf -> Sbuf_chain (Option.get arch.Mem_arch.sbuf)
  | Mem_arch.To_lldma -> Lldma_chain (Option.get arch.Mem_arch.lldma)
  | Mem_arch.To_cache -> (
    match arch.Mem_arch.cache with
    | Some c -> Cache_chain (c, arch.Mem_arch.victim, arch.Mem_arch.l2)
    | None -> Direct_chain arch.Mem_arch.wbuf)

(* [arch]'s chains with their bound region ids, in first-occurrence
   order. *)
let chains_of (arch : Mem_arch.t) =
  let acc = ref [] in
  Array.iteri
    (fun r b ->
      let c = chain_of arch b in
      match List.assoc_opt c !acc with
      | Some rs -> rs := r :: !rs
      | None -> acc := (c, ref [ r ]) :: !acc)
    arch.Mem_arch.bindings;
  List.rev_map (fun (c, rs) -> (c, List.rev !rs)) !acc

let instantiate_chain arch chain =
  let sim ?cache ?l2 ?sbuf ?lldma ?victim ?wbuf () =
    instantiate arch ~cache ~l2 ~sbuf ~lldma ~victim ~wbuf
  in
  match chain with
  | Cache_chain (c, victim, l2) -> sim ~cache:c ?victim ?l2 ()
  | Sram_chain -> sim ()
  | Sbuf_chain sb -> sim ~sbuf:sb ()
  | Lldma_chain ll -> sim ~lldma:ll ()
  | Direct_chain wbuf -> sim ?wbuf ()

(* Trace positions whose region is in [regions], ascending, with their
   count; [None] when that is every position. *)
let positions metas ~len ~max_region regions =
  let mask = Array.make (max_region + 1) false in
  List.iter (fun r -> if r <= max_region then mask.(r) <- true) regions;
  let n = ref 0 in
  for i = 0 to len - 1 do
    if mask.(Mx_trace.Trace.meta_region metas.(i)) then incr n
  done;
  if !n = len then (len, None)
  else begin
    let idx = Array.make !n 0 and k = ref 0 in
    for i = 0 to len - 1 do
      if mask.(Mx_trace.Trace.meta_region metas.(i)) then begin
        idx.(!k) <- i;
        incr k
      end
    done;
    (!n, Some idx)
  end

let zero_stats =
  {
    accesses = 0; on_chip_hits = 0; demand_misses = 0; dram_bytes_total = 0;
    cpu_bytes = (fun _ -> 0); cpu_accesses = (fun _ -> 0);
    dram_bytes_by = (fun _ -> 0); dram_txns_by = (fun _ -> 0);
    demand_misses_by = (fun _ -> 0); victim_hits = 0; wbuf_stalls = 0;
    l2_accesses = 0; l2_hits = 0; l2_bytes_total = 0; l2_txns_total = 0;
  }

let add_stats a b =
  let by f g =
    let v = Array.of_list (List.map (fun s -> f s + g s) all_servings) in
    fun s -> v.(serving_index s)
  in
  {
    accesses = a.accesses + b.accesses;
    on_chip_hits = a.on_chip_hits + b.on_chip_hits;
    demand_misses = a.demand_misses + b.demand_misses;
    dram_bytes_total = a.dram_bytes_total + b.dram_bytes_total;
    cpu_bytes = by a.cpu_bytes b.cpu_bytes;
    cpu_accesses = by a.cpu_accesses b.cpu_accesses;
    dram_bytes_by = by a.dram_bytes_by b.dram_bytes_by;
    dram_txns_by = by a.dram_txns_by b.dram_txns_by;
    demand_misses_by = by a.demand_misses_by b.demand_misses_by;
    victim_hits = a.victim_hits + b.victim_hits;
    wbuf_stalls = a.wbuf_stalls + b.wbuf_stalls;
    l2_accesses = a.l2_accesses + b.l2_accesses;
    l2_hits = a.l2_hits + b.l2_hits;
    l2_bytes_total = a.l2_bytes_total + b.l2_bytes_total;
    l2_txns_total = a.l2_txns_total + b.l2_txns_total;
  }

type sweep = { stats : stats list; chains : int; replayed : int }

(* [replay_chain sim idx] replays one chain's fresh state over the
   positions [idx] of [trace] (every position when [None]). *)
let sweep ~replay_chain ~jobs ~regions trace archs =
  let _, metas = Mx_trace.Trace.backing trace in
  let len = Mx_trace.Trace.length trace in
  let max_region = ref (-1) in
  for i = 0 to len - 1 do
    max_region := max !max_region (Mx_trace.Trace.meta_region metas.(i))
  done;
  let max_region = !max_region in
  (* 1. key every architecture's chains; the first architecture to use
     a (chain, region set) key simulates it *)
  let keys = Hashtbl.create 64 and work = ref [] and n_work = ref 0 in
  let replayed = ref 0 in
  let idx_of = Hashtbl.create 16 in
  let plans =
    List.map
      (fun (arch : Mem_arch.t) ->
        check_regions arch regions;
        (* out-of-range regions raise exactly as a whole-trace replay *)
        if max_region >= 0 then
          ignore (Mem_arch.binding_of arch ~region:max_region);
        List.filter_map
          (fun ((chain, rs) as key) ->
            match Hashtbl.find_opt keys key with
            | Some slot -> slot
            | None ->
              (* 2. one index array per distinct region set *)
              let n, idx =
                match Hashtbl.find_opt idx_of rs with
                | Some p -> p
                | None ->
                  let p = positions metas ~len ~max_region rs in
                  Hashtbl.add idx_of rs p;
                  p
              in
              let slot =
                if n = 0 then None
                else begin
                  work := (arch, chain, idx) :: !work;
                  incr n_work;
                  replayed := !replayed + n;
                  Some (!n_work - 1)
                end
              in
              Hashtbl.add keys key slot;
              slot)
          (chains_of arch))
      archs
  in
  let work = List.rev !work in
  (* 3. each distinct chain once, on the task pool *)
  let results =
    Mx_util.Task_pool.parallel_map ~jobs ~chunk:1
      (fun (arch, chain, idx) ->
        replay_chain (instantiate_chain arch chain) idx)
      work
    |> Array.of_list
  in
  (* 4. a candidate's stats are the sum of its chains' *)
  {
    stats =
      List.map
        (List.fold_left (fun acc i -> add_stats acc results.(i)) zero_stats)
        plans;
    chains = !n_work;
    replayed = !replayed;
  }

let run_all ?(jobs = Mx_util.Task_pool.default_jobs ()) ~regions trace archs =
  sweep ~jobs ~regions trace archs ~replay_chain:(fun sim idx ->
      replay ?idx sim trace)

module Testing = struct
  (* each chain replays a compacted copy of its accesses, so its clock
     restarts at 0 and counts only that chain's accesses *)
  let run_all_local_now ?(jobs = 1) ~regions trace archs =
    let addrs, metas = Mx_trace.Trace.backing trace in
    let compact idx =
      let sub = Mx_trace.Trace.create ~capacity:(Array.length idx) () in
      Array.iter
        (fun i -> Mx_trace.Trace.add_packed sub ~addr:addrs.(i) ~meta:metas.(i))
        idx;
      sub
    in
    sweep ~jobs ~regions trace archs ~replay_chain:(fun sim idx ->
        replay sim (match idx with Some idx -> compact idx | None -> trace))
end

let miss_ratio s =
  if s.accesses = 0 then 0.0
  else float_of_int s.demand_misses /. float_of_int s.accesses
