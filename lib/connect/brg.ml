type t = {
  arch : Mx_mem.Mem_arch.t;
  channels : Channel.t list;
  accesses : int;
}

let build arch (s : Mx_mem.Mem_sim.stats) =
  if s.accesses = 0 then invalid_arg "Brg.build: profile saw no accesses";
  let n = float_of_int s.accesses in
  let l2_channels =
    if s.Mx_mem.Mem_sim.l2_txns_total = 0 then []
    else
      [
        {
          Channel.src = Channel.Cache;
          dst = Channel.L2;
          bandwidth = float_of_int s.Mx_mem.Mem_sim.l2_bytes_total /. n;
          txn_bytes =
            float_of_int s.Mx_mem.Mem_sim.l2_bytes_total
            /. float_of_int s.Mx_mem.Mem_sim.l2_txns_total;
        };
      ]
  in
  let channels =
    List.concat_map
      (fun sv ->
        let node = Channel.of_serving sv in
        let cpu_side =
          let bytes = s.cpu_bytes sv and count = s.cpu_accesses sv in
          if count = 0 then []
          else
            [
              {
                Channel.src = Channel.Cpu;
                dst = node;
                bandwidth = float_of_int bytes /. n;
                txn_bytes = float_of_int bytes /. float_of_int count;
              };
            ]
        in
        let dram_side =
          let bytes = s.dram_bytes_by sv and txns = s.dram_txns_by sv in
          (* By_dram_direct's CPU channel already reaches DRAM; with an
             L2 the cache's off-chip traffic flows from the L2 instead *)
          let src =
            if
              node = Channel.Cache
              && s.Mx_mem.Mem_sim.l2_txns_total > 0
            then Channel.L2
            else node
          in
          if txns = 0 || node = Channel.Dram then []
          else
            [
              {
                Channel.src;
                dst = Channel.Dram;
                bandwidth = float_of_int bytes /. n;
                txn_bytes = float_of_int bytes /. float_of_int txns;
              };
            ]
        in
        cpu_side @ dram_side)
      Mx_mem.Mem_sim.all_servings
  in
  { arch; channels = l2_channels @ channels; accesses = s.accesses }

let onchip_channels t =
  List.filter (fun c -> not (Channel.crosses_chip c)) t.channels

let offchip_channels t = List.filter Channel.crosses_chip t.channels

let pp fmt t =
  Format.fprintf fmt "BRG for %s (%d accesses):@." t.arch.Mx_mem.Mem_arch.label
    t.accesses;
  List.iter (fun c -> Format.fprintf fmt "  %a@." Channel.pp c) t.channels
