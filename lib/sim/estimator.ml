module Mem_sim = Mx_mem.Mem_sim
module Mem_arch = Mx_mem.Mem_arch
module Params = Mx_mem.Params
module Component = Mx_connect.Component
module Conn_arch = Mx_connect.Conn_arch
module Conn_cost = Mx_connect.Conn_cost
module Rt = Mx_connect.Reservation_table

(* critical-word-first demand bytes; without the observed transfer the
   estimator falls back to a 4-byte word, and sizes the LLDMA leg from
   its static element width *)
let critical_bytes_of (arch : Mem_arch.t) sv =
  let lldma_bytes =
    match arch.Mem_arch.lldma with Some l -> l.Params.ll_elem | None -> 4
  in
  Serving.critical_bytes arch sv ~lldma_bytes ~fallback:4

let estimate ~workload ~arch ~(profile : Mem_sim.stats) ~conn =
  if profile.Mem_sim.accesses = 0 then
    invalid_arg "Estimator.estimate: empty profile";
  let n = float_of_int profile.Mem_sim.accesses in
  (* per-serving traffic characterisation from the profile *)
  let active =
    List.filter
      (fun sv -> profile.Mem_sim.cpu_accesses sv > 0)
      Mem_sim.all_servings
  in
  let avg_size sv =
    float_of_int (profile.Mem_sim.cpu_bytes sv)
    /. float_of_int (max 1 (profile.Mem_sim.cpu_accesses sv))
  in
  (* a leg is needed when the profile has traffic on it *)
  let has_l2 = profile.Mem_sim.l2_txns_total > 0 in
  let require = Serving.require "Estimator.estimate" in
  let legs =
    List.map
      (fun sv ->
        let path = Serving.path conn ~has_l2 sv in
        let cpu = require path.Serving.cpu in
        let mid = Option.map require path.Serving.l2 in
        let dram =
          if profile.Mem_sim.dram_txns_by sv > 0 then
            Some (require path.Serving.dram)
          else None
        in
        (sv, cpu, mid, dram))
      active
  in
  (* reservation-table-derived occupancy of each component instance *)
  let busy = Array.make (List.length conn.Conn_arch.bindings) 0.0 in
  let occupancy comp ~bytes =
    float_of_int (Rt.initiation_interval comp ~bytes:(max 1 bytes))
  in
  List.iter
    (fun (sv, cpu, mid, dram) ->
      let txns = float_of_int (profile.Mem_sim.cpu_accesses sv) in
      busy.(cpu.Conn_arch.index) <-
        busy.(cpu.index)
        +. (txns *. occupancy cpu.comp ~bytes:(int_of_float (avg_size sv)));
      (match mid with
      | Some l when profile.Mem_sim.l2_txns_total > 0 ->
        let mtx = float_of_int profile.Mem_sim.l2_txns_total in
        let per_txn =
          float_of_int profile.Mem_sim.l2_bytes_total /. Float.max 1.0 mtx
        in
        busy.(l.Conn_arch.index) <-
          busy.(l.index)
          +. (mtx *. occupancy l.comp ~bytes:(int_of_float per_txn))
      | _ -> ());
      match dram with
      | Some l when sv <> Mem_sim.By_dram_direct ->
        let dtxns = float_of_int (profile.Mem_sim.dram_txns_by sv) in
        let per_txn_bytes =
          float_of_int (profile.Mem_sim.dram_bytes_by sv)
          /. Float.max 1.0 dtxns
        in
        let hold =
          if l.Conn_arch.comp.Component.split_txn then 0.0
          else Serving.dram_core_latency ()
        in
        busy.(l.index) <-
          busy.(l.index)
          +. (dtxns
             *. (occupancy l.comp ~bytes:(int_of_float per_txn_bytes) +. hold))
      | _ -> ())
    legs;
  let ops_rate =
    float_of_int workload.Mx_trace.Workload.cpu_ops
    /. Float.max 1.0 (float_of_int (Mx_trace.Trace.length workload.Mx_trace.Workload.trace))
  in
  let wait_of total_cycles index service =
    let rho = Float.min 0.98 (busy.(index) /. Float.max 1.0 total_cycles) in
    service /. 2.0 *. (rho /. (1.0 -. rho))
  in
  (* fixed-point on total time *)
  let latency = ref 5.0 in
  let total = ref (n *. (1.0 +. ops_rate +. !latency)) in
  let bus_wait = ref 0.0 in
  for _ = 1 to 4 do
    bus_wait := 0.0;
    let l_sum =
      List.fold_left
        (fun acc (sv, cpu, mid, dram) ->
          let frac =
            float_of_int (profile.Mem_sim.cpu_accesses sv) /. n
          in
          let size = int_of_float (avg_size sv) in
          let s1 = occupancy cpu.Conn_arch.comp ~bytes:size in
          let w1 = wait_of !total cpu.index s1 in
          let t1 =
            float_of_int
              (Component.txn_latency cpu.comp ~bytes:(max 1 size)
                 ~contended:cpu.shared)
          in
          let miss_rate =
            float_of_int (profile.Mem_sim.demand_misses_by sv)
            /. float_of_int (max 1 (profile.Mem_sim.cpu_accesses sv))
          in
          (* the L1<->L2 leg is traversed at the L1 miss rate *)
          let l2_path =
            match mid with
            | None -> 0.0
            | Some l ->
              let l1_miss_rate =
                float_of_int profile.Mem_sim.l2_accesses
                /. float_of_int (max 1 (profile.Mem_sim.cpu_accesses sv))
              in
              let s_m = occupancy l.Conn_arch.comp ~bytes:8 in
              let w_m = wait_of !total l.index s_m in
              let t_m =
                float_of_int
                  (Component.txn_latency l.comp ~bytes:8
                     ~contended:l.shared)
              in
              let l2_lat =
                match arch.Mem_arch.l2 with
                | Some c -> float_of_int c.Params.c_latency
                | None -> 0.0
              in
              bus_wait := !bus_wait +. (frac *. l1_miss_rate *. w_m *. n);
              l1_miss_rate *. (w_m +. t_m +. l2_lat)
          in
          let miss_path =
            match dram with
            | None -> 0.0
            | Some l ->
              let crit = critical_bytes_of arch sv in
              let t2 =
                if sv = Mem_sim.By_dram_direct then 0.0
                else
                  float_of_int
                    (Component.txn_latency l.Conn_arch.comp ~bytes:(max 1 crit)
                       ~contended:l.shared)
              in
              let s2 = occupancy l.comp ~bytes:(max 1 crit) in
              let w2 =
                if sv = Mem_sim.By_dram_direct then 0.0
                else wait_of !total l.index s2
              in
              bus_wait := !bus_wait +. (frac *. miss_rate *. w2 *. n);
              w2 +. t2 +. Serving.dram_core_latency ()
          in
          bus_wait := !bus_wait +. (frac *. w1 *. n);
          acc
          +. (frac
             *. (w1 +. t1
                +. float_of_int (Serving.module_latency arch sv)
                +. l2_path
                +. (miss_rate *. miss_path))))
        0.0 legs
    in
    latency := l_sum;
    total := n *. (1.0 +. ops_rate +. !latency)
  done;
  (* energy: contention-independent, computed from exact profile counts *)
  let energy_total =
    List.fold_left
      (fun acc (sv, cpu, mid, dram) ->
        let accs = float_of_int (profile.Mem_sim.cpu_accesses sv) in
        let cpu_bytes = float_of_int (profile.Mem_sim.cpu_bytes sv) in
        (* a read-dominated average access *)
        let e_mod = accs *. Serving.module_energy arch sv ~write:false in
        let e_conn =
          cpu_bytes *. Conn_cost.energy_per_byte cpu.Conn_arch.comp
        in
        let e_l2 =
          match mid with
          | Some l ->
            (float_of_int profile.Mem_sim.l2_bytes_total
            *. Conn_cost.energy_per_byte l.Conn_arch.comp)
            +. (float_of_int profile.Mem_sim.l2_accesses
               *. (match arch.Mem_arch.l2 with
                  | Some c -> Mx_mem.Energy_model.cache_access c ~write:false
                  | None -> 0.0))
          | None -> 0.0
        in
        let e_dram =
          match dram with
          | None -> 0.0
          | Some l ->
            let bytes = profile.Mem_sim.dram_bytes_by sv in
            let txns = max 1 (profile.Mem_sim.dram_txns_by sv) in
            if bytes = 0 then 0.0
            else
              Mx_mem.Energy_model.dram_traffic ~txns ~bytes
              +. float_of_int bytes
                 *. Conn_cost.energy_per_byte l.Conn_arch.comp
        in
        acc +. e_mod +. e_conn +. e_l2 +. e_dram)
      0.0 legs
  in
  {
    Sim_result.accesses = profile.Mem_sim.accesses;
    cycles = int_of_float !total;
    total_mem_latency = int_of_float (!latency *. n);
    avg_mem_latency = !latency;
    avg_energy_nj = energy_total /. n;
    miss_ratio = Mem_sim.miss_ratio profile;
    bus_wait_cycles = int_of_float !bus_wait;
    dram_bytes = profile.Mem_sim.dram_bytes_total;
    exact = false;
  }
