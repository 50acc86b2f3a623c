module Mem_sim = Mx_mem.Mem_sim
module Mem_arch = Mx_mem.Mem_arch
module Params = Mx_mem.Params
module Component = Mx_connect.Component
module Conn_arch = Mx_connect.Conn_arch
module Conn_cost = Mx_connect.Conn_cost

let default_sample = (1000, 9000)

type cpu_model = Blocking | Overlap of int

(* The demand (CPU-blocking) share of an access's off-chip traffic is
   critical-word-first (see {!Serving.critical_bytes}); the simulator
   sizes the LLDMA leg from the observed transfer and falls back to the
   access size when a class has no backing module. *)
let critical_bytes arch serving (o : Mem_sim.outcome) ~size =
  if not o.Mem_sim.dram_critical then 0
  else
    Serving.critical_bytes arch serving ~lldma_bytes:o.Mem_sim.dram_bytes
      ~fallback:size

type bus_stat = {
  component : string;
  carries : string;
  txns : int;
  busy_cycles : int;
  wait_cycles : int;
  utilization : float;
}

(* Does chunk [first, first+len) intersect any "on" window of the
   (on, off) sampling pattern?  Windows repeat with period p = on+off;
   the chunk misses them all only when it sits entirely inside one off
   span. *)
let chunk_has_on_window ~on ~off ~first ~len =
  let p = on + off in
  let r = first mod p in
  r < on || len > p - r

let run_stream_traced ?sample ?(cpu = Blocking) ?(seek = false)
    ~(workload : Mx_trace.Workload.streamed) ~arch ~conn () =
  (match sample with
  | Some (on, off) when on <= 0 || off < 0 ->
    invalid_arg "Cycle_sim.run: bad sampling windows"
  | _ -> ());
  if seek && sample = None then
    invalid_arg "Cycle_sim.run_stream: ~seek requires ~sample";
  let mshrs =
    match cpu with
    | Blocking -> [||]
    | Overlap n ->
      if n <= 0 then invalid_arg "Cycle_sim.run: Overlap needs at least 1 MSHR";
      Array.make n 0
  in
  let bindings = (conn : Conn_arch.t).Conn_arch.bindings in
  let nbind = List.length bindings in
  let busy = Array.make (max 1 nbind) 0 in
  (* per-binding utilisation accounting *)
  let busy_acc = Array.make (max 1 nbind) 0 in
  let wait_acc = Array.make (max 1 nbind) 0 in
  let txn_acc = Array.make (max 1 nbind) 0 in
  let note ~idx ~occ ~wait =
    busy_acc.(idx) <- busy_acc.(idx) + occ;
    wait_acc.(idx) <- wait_acc.(idx) + wait;
    txn_acc.(idx) <- txn_acc.(idx) + 1
  in
  let has_l2 = arch.Mem_arch.l2 <> None in
  let paths =
    Array.of_list (List.map (Serving.path conn ~has_l2) Mem_sim.all_servings)
  in
  let require = Serving.require "Cycle_sim.run" in
  let msim =
    Mem_sim.create arch ~regions:workload.Mx_trace.Workload.s_regions
  in
  let stream = workload.Mx_trace.Workload.s_stream in
  let n = Mx_trace.Trace_stream.length stream in
  let ops_rate =
    if n = 0 then 0.0
    else float_of_int workload.Mx_trace.Workload.s_cpu_ops /. float_of_int n
  in
  (* accumulators *)
  let now = ref 0 in
  let ops_acc = ref 0.0 in
  let sampled_accesses = ref 0 in
  let total_lat = ref 0 in
  let total_wait = ref 0 in
  let energy = ref 0.0 in
  let in_on_window i =
    match sample with
    | None -> true
    | Some (on, off) -> i mod (on + off) < on
  in
  let i = ref 0 in
  let per_access ~addr ~size ~kind ~region =
      let write = kind = Mx_trace.Access.Write in
      (* interleaved compute cycles *)
      ops_acc := !ops_acc +. ops_rate;
      let gap = int_of_float !ops_acc in
      ops_acc := !ops_acc -. float_of_int gap;
      let o = Mem_sim.access msim ~now:!i ~addr ~size ~write ~region in
      let sv = o.Mem_sim.serving in
      let path = paths.(Mem_sim.serving_index sv) in
      if in_on_window !i then begin
        now := !now + gap;
        let l1 = require path.Serving.cpu in
        let start1 = max !now busy.(l1.index) in
        let wait1 = start1 - !now in
        let lat1 =
          Component.txn_latency l1.comp ~bytes:size ~contended:l1.shared
        in
        let occ1 = Component.occupancy l1.comp ~bytes:size in
        note ~idx:l1.index ~occ:occ1 ~wait:wait1;
        let mem_lat = Serving.module_latency arch sv in
        let crit = critical_bytes arch sv o ~size in
        let bg = o.Mem_sim.dram_bytes - crit in
        let miss_path = ref 0 in
        (* the L1<->L2 leg comes first on an L1 miss when an L2 exists;
           only the cache path of an L2 architecture moves L2 bytes *)
        if o.Mem_sim.l2_bytes > 0 then begin
          let lm = require (Option.get path.Serving.l2) in
          let crit_m = min 8 o.Mem_sim.l2_bytes in
          let t_req = !now + wait1 + lat1 in
          let start_m = max t_req busy.(lm.index) in
          let wait_m = start_m - t_req in
          let lat_m =
            Component.txn_latency lm.comp ~bytes:crit_m ~contended:lm.shared
          in
          let occ_m = Component.occupancy lm.comp ~bytes:crit_m in
          busy.(lm.index) <- start_m + occ_m;
          note ~idx:lm.index ~occ:occ_m ~wait:wait_m;
          let bg_m = o.Mem_sim.l2_bytes - crit_m in
          if bg_m > 0 then begin
            let occ_bg = Component.occupancy lm.comp ~bytes:bg_m in
            busy.(lm.index) <- max busy.(lm.index) !now + occ_bg;
            note ~idx:lm.index ~occ:occ_bg ~wait:0
          end;
          let l2_lat =
            match arch.Mem_arch.l2 with
            | Some c -> c.Params.c_latency
            | None -> 0
          in
          miss_path := wait_m + lat_m + l2_lat;
          total_wait := !total_wait + wait_m;
          energy :=
            !energy
            +. (float_of_int o.Mem_sim.l2_bytes
               *. Conn_cost.energy_per_byte lm.comp)
        end;
        if o.Mem_sim.dram_bytes > 0 then begin
          (* By_dram_direct rides its CPU channel off chip *)
          let l2 = require path.Serving.dram in
          if crit > 0 then begin
            let dram_lat = Mx_mem.Dram.access (Mem_sim.dram msim) ~addr in
            if sv = Mem_sim.By_dram_direct then
              (* the CPU-side transaction itself reaches DRAM; add the
                 core access time only *)
              miss_path := dram_lat
            else begin
              let t_req = !now + wait1 + lat1 + !miss_path in
              let start2 = max t_req busy.(l2.index) in
              let wait2 = start2 - t_req in
              let lat2 =
                Component.txn_latency l2.comp ~bytes:crit
                  ~contended:l2.shared
              in
              let occ2 = Component.occupancy l2.comp ~bytes:crit in
              busy.(l2.index) <-
                start2 + occ2
                + (if l2.comp.Component.split_txn then 0 else dram_lat);
              note ~idx:l2.index ~occ:occ2 ~wait:wait2;
              miss_path := !miss_path + wait2 + lat2 + dram_lat;
              total_wait := !total_wait + wait2
            end
          end;
          if bg > 0 then begin
            (* prefetch/writeback traffic occupies the off-chip leg and
               touches DRAM rows without stalling the CPU *)
            ignore (Mx_mem.Dram.access (Mem_sim.dram msim) ~addr);
            let occ_bg = Component.occupancy l2.comp ~bytes:bg in
            busy.(l2.index) <- max busy.(l2.index) !now + occ_bg;
            note ~idx:l2.index ~occ:occ_bg ~wait:0
          end;
          (* off-chip energy: DRAM core (per burst) + pad/bus switching *)
          energy :=
            !energy
            +. Mx_mem.Energy_model.dram_traffic ~txns:o.Mem_sim.dram_txns
                 ~bytes:o.Mem_sim.dram_bytes
            +. (float_of_int o.Mem_sim.dram_bytes
               *. Conn_cost.energy_per_byte l2.comp)
        end;
        (* hold a non-split CPU-side component for the whole miss *)
        busy.(l1.index) <-
          start1 + occ1
          + (if l1.comp.Component.split_txn then 0 else !miss_path);
        let latency =
          match cpu with
          | Blocking ->
            wait1 + lat1 + mem_lat + o.Mem_sim.extra_latency + !miss_path
          | Overlap _ ->
            let on_chip = wait1 + lat1 + mem_lat + o.Mem_sim.extra_latency in
            if !miss_path = 0 then on_chip
            else begin
              (* park the miss in an MSHR; stall only when all are busy *)
              let slot = ref 0 in
              Array.iteri
                (fun i t -> if t < mshrs.(!slot) then slot := i)
                mshrs;
              let stall = max 0 (mshrs.(!slot) - !now) in
              mshrs.(!slot) <- !now + stall + on_chip + !miss_path;
              on_chip + stall
            end
        in
        now := !now + latency;
        total_lat := !total_lat + latency;
        total_wait := !total_wait + wait1;
        incr sampled_accesses;
        energy :=
          !energy
          +. Serving.module_energy arch sv ~write
          +. o.Mem_sim.extra_energy
          +. (float_of_int size *. Conn_cost.energy_per_byte l1.comp)
      end
      else begin
        (* off window: keep module/DRAM state warm, no timing *)
        if o.Mem_sim.dram_bytes > 0 then
          ignore (Mx_mem.Dram.access (Mem_sim.dram msim) ~addr)
      end;
      incr i
  in
  (* A skipped span must still advance the compute-gap recurrence, so
     the accesses that ARE replayed see the same interleaved gaps as a
     full pass.  Same float ops per access as the live path. *)
  let fast_forward len =
    for _ = 1 to len do
      ops_acc := !ops_acc +. ops_rate;
      let gap = int_of_float !ops_acc in
      ops_acc := !ops_acc -. float_of_int gap
    done;
    i := !i + len
  in
  for ci = 0 to Mx_trace.Trace_stream.chunk_count stream - 1 do
    let clen = Mx_trace.Trace_stream.chunk_length stream ci in
    let skip =
      seek
      &&
      match sample with
      | Some (on, off) ->
        not
          (chunk_has_on_window ~on ~off
             ~first:(Mx_trace.Trace_stream.chunk_start stream ci)
             ~len:clen)
      | None -> false
    in
    if skip then fast_forward clen
    else begin
      let c = Mx_trace.Trace_stream.get_chunk stream ci in
      let open Mx_trace.Trace_stream in
      for k = c.c_off to c.c_off + c.c_len - 1 do
        let meta = c.c_metas.(k) in
        per_access ~addr:c.c_addrs.(k)
          ~size:(Mx_trace.Trace.meta_size meta)
          ~kind:(Mx_trace.Trace.meta_kind meta)
          ~region:(Mx_trace.Trace.meta_region meta)
      done
    end
  done;
  let sampled = max 1 !sampled_accesses in
  let avg_lat = float_of_int !total_lat /. float_of_int sampled in
  let scale = float_of_int n /. float_of_int sampled in
  (* routing statistics are exact even when sampling: the module state
     saw every access *)
  let mstats = Mem_sim.snapshot msim in
  let miss_ratio = Mem_sim.miss_ratio mstats in
  let dram_bytes = mstats.Mem_sim.dram_bytes_total in
  let result =
    {
      Sim_result.accesses = n;
      cycles = int_of_float (float_of_int !now *. scale);
      total_mem_latency = !total_lat;
      avg_mem_latency = avg_lat;
      avg_energy_nj = !energy /. float_of_int sampled;
      miss_ratio;
      bus_wait_cycles = !total_wait;
      dram_bytes;
      exact = sample = None;
    }
  in
  let total_cycles = max 1 !now in
  let stats =
    List.mapi
      (fun idx (b : Conn_arch.binding) ->
        {
          component = b.Conn_arch.component.Component.name;
          carries = Mx_connect.Cluster.describe b.Conn_arch.cluster;
          txns = txn_acc.(idx);
          busy_cycles = busy_acc.(idx);
          wait_cycles = wait_acc.(idx);
          utilization = float_of_int busy_acc.(idx) /. float_of_int total_cycles;
        })
      bindings
  in
  (* One registry deposit per simulation, from whichever domain ran it:
     the per-access loop above never touches the registry. *)
  (if Mx_util.Metrics.is_on Mx_util.Metrics.global then begin
     let m = Mx_util.Metrics.global in
     Mx_util.Metrics.incr m "cycle_sim.runs";
     Mx_util.Metrics.incr m ~by:n "cycle_sim.accesses";
     Mx_util.Metrics.incr m ~by:!sampled_accesses "cycle_sim.sampled_accesses";
     Mx_util.Metrics.incr m ~by:!total_wait "cycle_sim.stall_cycles";
     Mx_util.Metrics.incr m ~by:total_cycles "cycle_sim.cycles";
     Mx_util.Metrics.observe m ~unit_:"cycles" "cycle_sim.avg_mem_latency"
       avg_lat;
     List.iter
       (fun (s : bus_stat) ->
         let pre = "cycle_sim.bus." ^ s.component ^ "." in
         Mx_util.Metrics.incr m ~by:s.txns (pre ^ "txns");
         Mx_util.Metrics.incr m ~by:s.busy_cycles (pre ^ "busy_cycles");
         Mx_util.Metrics.incr m ~by:s.wait_cycles (pre ^ "wait_cycles"))
       stats
   end);
  (result, stats)

let run_stream ?sample ?cpu ?seek ~workload ~arch ~conn () =
  fst (run_stream_traced ?sample ?cpu ?seek ~workload ~arch ~conn ())

(* The in-memory entry points replay through a zero-copy stream with
   the default chunk geometry: same accesses, same order, same float
   accumulation — byte-identical to the pre-stream implementation. *)
let run_traced ?sample ?cpu ~workload ~arch ~conn () =
  let streamed =
    Mx_trace.Workload.streamed ~name:workload.Mx_trace.Workload.name
      ~regions:workload.Mx_trace.Workload.regions
      ~cpu_ops:workload.Mx_trace.Workload.cpu_ops
      (Mx_trace.Trace_stream.of_trace workload.Mx_trace.Workload.trace)
  in
  run_stream_traced ?sample ?cpu ~workload:streamed ~arch ~conn ()

let run ?sample ?cpu ~workload ~arch ~conn () =
  fst (run_traced ?sample ?cpu ~workload ~arch ~conn ())

let record_utilization_gauges ?(registry = Mx_util.Metrics.global) () =
  let snap = Mx_util.Metrics.snapshot registry in
  let cycles =
    List.assoc_opt "cycle_sim.cycles" snap.Mx_util.Metrics.counters
    |> Option.value ~default:0
  in
  if cycles > 0 then
    List.iter
      (fun (name, busy) ->
        let pre = "cycle_sim.bus." and suf = ".busy_cycles" in
        let pl = String.length pre and sl = String.length suf in
        let l = String.length name in
        if
          l > pl + sl
          && String.sub name 0 pl = pre
          && String.sub name (l - sl) sl = suf
        then
          let comp = String.sub name pl (l - pl - sl) in
          Mx_util.Metrics.set_gauge registry
            ("cycle_sim.bus." ^ comp ^ ".utilization")
            (float_of_int busy /. float_of_int cycles))
      snap.Mx_util.Metrics.counters
