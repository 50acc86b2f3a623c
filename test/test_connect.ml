(* Components, reservation tables, BRG, clustering, assignment. *)

module Channel = Mx_connect.Channel
module Component = Mx_connect.Component
module Rt = Mx_connect.Reservation_table
module Brg = Mx_connect.Brg
module Cluster = Mx_connect.Cluster
module Assign = Mx_connect.Assign
module Conn_arch = Mx_connect.Conn_arch
module Conn_cost = Mx_connect.Conn_cost

let ch ?(bw = 1.0) src dst =
  { Channel.src; dst; bandwidth = bw; txn_bytes = 4.0 }

(* -- channels ---------------------------------------------------------- *)

let test_crosses_chip () =
  Helpers.check_true "cache-dram crosses"
    (Channel.crosses_chip (ch Channel.Cache Channel.Dram));
  Helpers.check_true "cpu-cache does not"
    (not (Channel.crosses_chip (ch Channel.Cpu Channel.Cache)))

let test_same_endpoints_symmetric () =
  let a = ch Channel.Cpu Channel.Cache and b = ch Channel.Cache Channel.Cpu in
  Helpers.check_true "direction-insensitive" (Channel.same_endpoints a b)

(* -- components -------------------------------------------------------- *)

let test_library_sane () =
  Helpers.check_true "library non-empty" (List.length Component.library >= 8);
  List.iter
    (fun (c : Component.t) ->
      Helpers.check_true (c.Component.name ^ " width positive") (c.Component.width > 0);
      Helpers.check_true (c.Component.name ^ " fanin positive")
        (c.Component.max_channels >= 1))
    Component.library

let test_partition_onchip_offchip () =
  Helpers.check_int "partition"
    (List.length Component.library)
    (List.length Component.onchip_library + List.length Component.offchip_library)

let test_beats () =
  let ahb = Component.by_name "ahb32" in
  Helpers.check_int "1 beat for 4B on 32-bit" 1 (Component.beats ahb ~bytes:4);
  Helpers.check_int "8 beats for 32B" 8 (Component.beats ahb ~bytes:32);
  Helpers.check_int "at least 1 beat" 1 (Component.beats ahb ~bytes:0)

let test_txn_latency_contention_premium () =
  let asb = Component.by_name "asb32" in
  Helpers.check_true "arbitration adds latency"
    (Component.txn_latency asb ~bytes:4 ~contended:true
    > Component.txn_latency asb ~bytes:4 ~contended:false)

let test_pipelined_occupancy_lower () =
  let ahb = Component.by_name "ahb32" and asb = Component.by_name "asb32" in
  Helpers.check_true "pipelined bus frees earlier"
    (Component.occupancy ahb ~bytes:32 < Component.occupancy asb ~bytes:32 + 1)

let test_by_name_unknown () =
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Component.by_name "no-such-bus"))

(* -- reservation tables ------------------------------------------------ *)

let test_rt_reserve_conflict () =
  let t = Rt.create ~n_resources:1 in
  let tpl = [ { Rt.resource = 0; offset = 0; duration = 4 } ] in
  Rt.reserve t ~at:0 tpl;
  Helpers.check_true "overlap rejected" (not (Rt.fits t ~at:2 tpl));
  Helpers.check_true "after free" (Rt.fits t ~at:4 tpl)

let test_rt_earliest_fit () =
  let t = Rt.create ~n_resources:1 in
  let tpl = [ { Rt.resource = 0; offset = 0; duration = 3 } ] in
  Rt.reserve t ~at:5 tpl;
  Helpers.check_int "before the busy window" 0 (Rt.earliest_fit t ~from:0 tpl);
  Helpers.check_int "pushed past the busy window" 8 (Rt.earliest_fit t ~from:4 tpl)

let test_rt_release_before () =
  let t = Rt.create ~n_resources:1 in
  let tpl = [ { Rt.resource = 0; offset = 0; duration = 2 } ] in
  Rt.reserve t ~at:0 tpl;
  Rt.release_before t 10;
  Helpers.check_true "old reservation dropped" (Rt.fits t ~at:0 tpl)

let test_rt_template_agrees_with_component () =
  (* the RT view and the closed-form view must agree on every library
     component for a range of sizes *)
  List.iter
    (fun (c : Component.t) ->
      List.iter
        (fun bytes ->
          let tpl = Rt.template_for c ~bytes in
          Helpers.check_int
            (Printf.sprintf "%s latency (%dB)" c.Component.name bytes)
            (Component.txn_latency c ~bytes ~contended:false)
            (Rt.latency_of tpl);
          Helpers.check_int
            (Printf.sprintf "%s occupancy (%dB)" c.Component.name bytes)
            (Component.occupancy c ~bytes)
            (Rt.initiation_interval c ~bytes))
        [ 1; 4; 8; 32; 64 ])
    Component.library

let test_rt_validation () =
  Helpers.check_true "bad resource count rejected"
    (try
       ignore (Rt.create ~n_resources:0);
       false
     with Invalid_argument _ -> true)

(* -- clustering --------------------------------------------------------- *)

let channels_4 =
  [
    ch ~bw:0.1 Channel.Cpu Channel.Sram;
    ch ~bw:0.2 Channel.Cpu Channel.Sbuf;
    ch ~bw:4.0 Channel.Cpu Channel.Cache;
    ch ~bw:1.0 Channel.Cache Channel.Dram;
  ]

let test_cluster_initial () =
  let cls = Cluster.initial channels_4 in
  Helpers.check_int "one per channel" 4 (List.length cls)

let test_cluster_merge_lowest_first () =
  let cls = Cluster.initial channels_4 in
  match Cluster.merge_step cls with
  | None -> Alcotest.fail "expected a merge"
  | Some next ->
    Helpers.check_int "one fewer cluster" 3 (List.length next);
    (* the merged cluster holds the two lowest-bandwidth on-chip arcs *)
    let merged = List.find (fun c -> List.length c.Cluster.channels = 2) next in
    Alcotest.(check (float 1e-9)) "cumulative bandwidth" 0.3 merged.Cluster.bandwidth

let test_cluster_never_mixes_boundary () =
  let levels = Cluster.levels channels_4 in
  List.iter
    (fun level ->
      List.iter
        (fun cl ->
          let all_off =
            List.for_all Channel.crosses_chip cl.Cluster.channels
          and none_off =
            List.for_all (fun c -> not (Channel.crosses_chip c)) cl.Cluster.channels
          in
          Helpers.check_true "homogeneous boundary class" (all_off || none_off))
        level)
    levels

let test_cluster_levels_count () =
  (* 3 on-chip arcs merge twice; 1 off-chip arc cannot merge: 3 levels *)
  Helpers.check_int "level count" 3 (List.length (Cluster.levels channels_4));
  Helpers.check_int "count_levels agrees" 3 (Assign.count_levels channels_4)

let test_cluster_merge_rejects_mixed () =
  let on = Cluster.of_channel (ch Channel.Cpu Channel.Cache)
  and off = Cluster.of_channel (ch Channel.Cache Channel.Dram) in
  Helpers.check_true "mixed merge rejected"
    (try
       ignore (Cluster.merge on off);
       false
     with Invalid_argument _ -> true)

let test_levels_preserve_channels () =
  List.iter
    (fun level ->
      let n =
        List.fold_left (fun acc c -> acc + List.length c.Cluster.channels) 0 level
      in
      Helpers.check_int "channels preserved" 4 n)
    (Cluster.levels channels_4)

(* -- assignment --------------------------------------------------------- *)

let test_choices_respect_boundary () =
  let off_cl = Cluster.of_channel (ch Channel.Cache Channel.Dram) in
  let cs =
    Assign.choices ~onchip:Component.onchip_library
      ~offchip:Component.offchip_library off_cl
  in
  Helpers.check_true "only off-chip components"
    (List.for_all (fun (c : Component.t) -> c.Component.offchip) cs)

let test_choices_respect_fanin () =
  let big =
    List.fold_left
      (fun acc c -> Cluster.merge acc (Cluster.of_channel c))
      (Cluster.of_channel (ch Channel.Cpu Channel.Cache))
      [ ch Channel.Cpu Channel.Sram; ch Channel.Cpu Channel.Sbuf ]
  in
  let cs =
    Assign.choices ~onchip:Component.onchip_library
      ~offchip:Component.offchip_library big
  in
  Helpers.check_true "dedicated excluded for multi-channel cluster"
    (List.for_all (fun (c : Component.t) -> c.Component.kind <> Component.Dedicated) cs)

let test_enumerate_size () =
  let cls = Cluster.initial [ ch Channel.Cpu Channel.Cache; ch Channel.Cache Channel.Dram ] in
  let archs =
    Assign.enumerate ~onchip:Component.onchip_library
      ~offchip:Component.offchip_library cls
  in
  Helpers.check_int "cartesian product"
    (List.length Component.onchip_library * List.length Component.offchip_library)
    (List.length archs)

let test_enumerate_cap () =
  let cls = Cluster.initial [ ch Channel.Cpu Channel.Cache; ch Channel.Cache Channel.Dram ] in
  let archs =
    Assign.enumerate ~max_designs:5 ~onchip:Component.onchip_library
      ~offchip:Component.offchip_library cls
  in
  Helpers.check_int "capped" 5 (List.length archs)

let test_enumerate_levels_dedup () =
  let archs =
    Assign.enumerate_levels ~onchip:Component.onchip_library
      ~offchip:Component.offchip_library channels_4
  in
  let ids = List.map Conn_arch.describe archs in
  Helpers.check_int "no duplicates"
    (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_enumerate_empty_when_infeasible () =
  let off_cl = Cluster.of_channel (ch Channel.Cache Channel.Dram) in
  Helpers.check_int "no feasible assignment -> empty" 0
    (List.length
       (Assign.enumerate ~onchip:Component.onchip_library ~offchip:[] [ off_cl ]))

(* -- conn_arch / conn_cost ---------------------------------------------- *)

let test_conn_arch_rejects_infeasible () =
  let off_cl = Cluster.of_channel (ch Channel.Cache Channel.Dram) in
  Helpers.check_true "on-chip component for off-chip cluster rejected"
    (try
       ignore (Conn_arch.make [ (off_cl, Component.by_name "ahb32") ]);
       false
     with Invalid_argument _ -> true)

let check_leg what ~comp ~index ~shared = function
  | None -> Alcotest.failf "%s: no leg" what
  | Some (l : Conn_arch.leg) ->
    Helpers.check_true (what ^ ": component")
      (l.Conn_arch.comp.Component.name = comp);
    Helpers.check_int (what ^ ": index") index l.Conn_arch.index;
    Helpers.check_true (what ^ ": shared") (l.Conn_arch.shared = shared)

let test_conn_arch_route_and_sharing () =
  let c1 = ch Channel.Cpu Channel.Cache and c2 = ch Channel.Cpu Channel.Sram in
  let cl = Cluster.merge (Cluster.of_channel c1) (Cluster.of_channel c2) in
  let off = Cluster.of_channel (ch Channel.Cache Channel.Dram) in
  let arch =
    Conn_arch.make
      [ (cl, Component.by_name "ahb32"); (off, Component.by_name "off32") ]
  in
  check_leg "CPU<->cache" ~comp:"ahb32" ~index:0 ~shared:true
    (Conn_arch.route arch Channel.Cpu Channel.Cache);
  (* endpoints match in either direction *)
  check_leg "SRAM<->CPU" ~comp:"ahb32" ~index:0 ~shared:true
    (Conn_arch.route arch Channel.Sram Channel.Cpu);
  check_leg "cache<->DRAM" ~comp:"off32" ~index:1 ~shared:false
    (Conn_arch.route arch Channel.Cache Channel.Dram)

let test_conn_arch_route_missing () =
  let cl = Cluster.of_channel (ch Channel.Cpu Channel.Cache) in
  let arch = Conn_arch.make [ (cl, Component.by_name "ded32") ] in
  Helpers.check_true "missing channel routes nowhere"
    (Conn_arch.route arch Channel.Cpu Channel.Sram = None)

let test_conn_arch_route_first_binding () =
  (* a channel carried by two bindings routes to the first *)
  let c1 = ch Channel.Cpu Channel.Cache and c2 = ch Channel.Cpu Channel.Sram in
  let both = Cluster.merge (Cluster.of_channel c1) (Cluster.of_channel c2) in
  let arch =
    Conn_arch.make
      [ (Cluster.of_channel c1, Component.by_name "ded32");
        (both, Component.by_name "ahb32") ]
  in
  check_leg "CPU<->cache" ~comp:"ded32" ~index:0 ~shared:false
    (Conn_arch.route arch Channel.Cpu Channel.Cache);
  check_leg "CPU<->SRAM" ~comp:"ahb32" ~index:1 ~shared:true
    (Conn_arch.route arch Channel.Cpu Channel.Sram)

let test_conn_cost_grows_with_ports () =
  let ahb = Component.by_name "ahb32" in
  Helpers.check_true "more ports cost more"
    (Conn_cost.cost_gates ahb ~channels:4 > Conn_cost.cost_gates ahb ~channels:1)

let test_conn_cost_fanin_guard () =
  let ded = Component.by_name "ded32" in
  Helpers.check_true "fan-in overflow rejected"
    (try
       ignore (Conn_cost.cost_gates ded ~channels:2);
       false
     with Invalid_argument _ -> true)

let test_conn_cost_small_vs_memory () =
  (* connectivity is 1-2 orders of magnitude below memory modules *)
  let ahb = Component.by_name "ahb32" in
  Helpers.check_true "connectivity << 32KB cache"
    (Conn_cost.cost_gates ahb ~channels:8 * 10
    < Mx_mem.Cost_model.cache
        { Mx_mem.Params.c_size = 32768; c_line = 32; c_assoc = 2; c_latency = 2; c_policy = Mx_mem.Params.default_policy })

let test_offchip_energy_premium () =
  Helpers.check_true "off-chip beats cost the most"
    (Conn_cost.energy_per_byte (Component.by_name "off32")
    > Conn_cost.energy_per_byte (Component.by_name "ahb32"))

(* -- BRG ----------------------------------------------------------------- *)

let test_brg_cache_only () =
  let w = Helpers.mixed_workload () in
  let arch = Helpers.cache_only_arch w in
  let brg = Brg.build arch (Helpers.profile_of arch w) in
  Helpers.check_int "two channels (cpu-cache, cache-dram)" 2
    (List.length brg.Brg.channels);
  Helpers.check_int "one on-chip" 1 (List.length (Brg.onchip_channels brg));
  Helpers.check_int "one off-chip" 1 (List.length (Brg.offchip_channels brg))

let test_brg_rich_channels () =
  let w = Helpers.mixed_workload () in
  let arch = Helpers.rich_arch w in
  let brg = Brg.build arch (Helpers.profile_of arch w) in
  (* cpu<->{cache,sram,sbuf,lldma} + {cache,sbuf,lldma}<->dram *)
  Helpers.check_int "seven channels" 7 (List.length brg.Brg.channels);
  List.iter
    (fun c ->
      Helpers.check_true "positive bandwidth" (c.Channel.bandwidth > 0.0);
      Helpers.check_true "positive txn size" (c.Channel.txn_bytes > 0.0))
    brg.Brg.channels

let test_brg_bandwidth_reflects_traffic () =
  let w = Helpers.mixed_workload () in
  let arch = Helpers.cache_only_arch w in
  let stats = Helpers.profile_of arch w in
  let brg = Brg.build arch stats in
  let cpu_side =
    List.find (fun c -> not (Channel.crosses_chip c)) brg.Brg.channels
  in
  let expected =
    float_of_int (stats.Mx_mem.Mem_sim.cpu_bytes Mx_mem.Mem_sim.By_cache)
    /. float_of_int stats.Mx_mem.Mem_sim.accesses
  in
  Alcotest.(check (float 1e-9)) "bandwidth = bytes/slot" expected
    cpu_side.Channel.bandwidth

let suite =
  ( "connect",
    [
      Alcotest.test_case "crosses chip" `Quick test_crosses_chip;
      Alcotest.test_case "endpoints symmetric" `Quick test_same_endpoints_symmetric;
      Alcotest.test_case "library sane" `Quick test_library_sane;
      Alcotest.test_case "on/off partition" `Quick test_partition_onchip_offchip;
      Alcotest.test_case "beats" `Quick test_beats;
      Alcotest.test_case "contention premium" `Quick test_txn_latency_contention_premium;
      Alcotest.test_case "pipelined occupancy" `Quick test_pipelined_occupancy_lower;
      Alcotest.test_case "by_name unknown" `Quick test_by_name_unknown;
      Alcotest.test_case "rt conflict" `Quick test_rt_reserve_conflict;
      Alcotest.test_case "rt earliest fit" `Quick test_rt_earliest_fit;
      Alcotest.test_case "rt release" `Quick test_rt_release_before;
      Alcotest.test_case "rt = closed form" `Quick test_rt_template_agrees_with_component;
      Alcotest.test_case "rt validation" `Quick test_rt_validation;
      Alcotest.test_case "cluster initial" `Quick test_cluster_initial;
      Alcotest.test_case "merge lowest" `Quick test_cluster_merge_lowest_first;
      Alcotest.test_case "boundary discipline" `Quick test_cluster_never_mixes_boundary;
      Alcotest.test_case "level count" `Quick test_cluster_levels_count;
      Alcotest.test_case "mixed merge rejected" `Quick test_cluster_merge_rejects_mixed;
      Alcotest.test_case "levels preserve channels" `Quick test_levels_preserve_channels;
      Alcotest.test_case "choices boundary" `Quick test_choices_respect_boundary;
      Alcotest.test_case "choices fanin" `Quick test_choices_respect_fanin;
      Alcotest.test_case "enumerate size" `Quick test_enumerate_size;
      Alcotest.test_case "enumerate cap" `Quick test_enumerate_cap;
      Alcotest.test_case "levels dedup" `Quick test_enumerate_levels_dedup;
      Alcotest.test_case "infeasible empty" `Quick test_enumerate_empty_when_infeasible;
      Alcotest.test_case "conn_arch feasibility" `Quick test_conn_arch_rejects_infeasible;
      Alcotest.test_case "route & sharing" `Quick test_conn_arch_route_and_sharing;
      Alcotest.test_case "route missing" `Quick test_conn_arch_route_missing;
      Alcotest.test_case "route first binding" `Quick
        test_conn_arch_route_first_binding;
      Alcotest.test_case "cost grows with ports" `Quick test_conn_cost_grows_with_ports;
      Alcotest.test_case "fanin guard" `Quick test_conn_cost_fanin_guard;
      Alcotest.test_case "connectivity << memory" `Quick test_conn_cost_small_vs_memory;
      Alcotest.test_case "off-chip energy" `Quick test_offchip_energy_premium;
      Alcotest.test_case "brg cache-only" `Quick test_brg_cache_only;
      Alcotest.test_case "brg rich" `Quick test_brg_rich_channels;
      Alcotest.test_case "brg bandwidth" `Quick test_brg_bandwidth_reflects_traffic;
    ] )
