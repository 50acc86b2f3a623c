(* Two-level cache hierarchy tests: validation, simulation semantics,
   BRG channels, cycle-sim timing and APEX exploration. *)

module Params = Mx_mem.Params
module Mem_arch = Mx_mem.Mem_arch
module Mem_sim = Mx_mem.Mem_sim
module Brg = Mx_connect.Brg
module Channel = Mx_connect.Channel

let l1 = { Params.c_size = 2048; c_line = 32; c_assoc = 2; c_latency = 1; c_policy = Params.default_policy }
let l2p = { Params.c_size = 16384; c_line = 64; c_assoc = 4; c_latency = 4; c_policy = Params.default_policy }

let with_l2 w =
  Mem_arch.make ~label:"l1+l2" ~cache:l1 ~l2:l2p
    ~bindings:
      (Array.make (List.length w.Mx_trace.Workload.regions) Mem_arch.To_cache)
    ()

let l1_only w =
  Mem_arch.make ~label:"l1" ~cache:l1
    ~bindings:
      (Array.make (List.length w.Mx_trace.Workload.regions) Mem_arch.To_cache)
    ()

let test_validation () =
  Helpers.check_true "L2 without L1 rejected"
    (try
       ignore (Mem_arch.make ~label:"x" ~l2:l2p ~bindings:[| Mem_arch.To_cache |] ());
       false
     with Invalid_argument _ -> true);
  Helpers.check_true "L2 smaller than L1 rejected"
    (try
       ignore
         (Mem_arch.make ~label:"x" ~cache:l2p ~l2:l1
            ~bindings:[| Mem_arch.To_cache |] ());
       false
     with Invalid_argument _ -> true)

let test_cost_includes_l2 () =
  let w = Helpers.mixed_workload ~scale:100 () in
  Helpers.check_int "cost adds the L2 array"
    (Mem_arch.cost_gates (l1_only w) + Mx_mem.Cost_model.cache l2p)
    (Mem_arch.cost_gates (with_l2 w))

let test_l2_reduces_offchip_misses () =
  let w = Helpers.mixed_workload () in
  let s1 = Helpers.profile_of (l1_only w) w in
  let s2 = Helpers.profile_of (with_l2 w) w in
  Helpers.check_true "L2 absorbs off-chip misses"
    (Mem_sim.miss_ratio s2 < Mem_sim.miss_ratio s1);
  Helpers.check_true "L2 sees the L1 miss stream"
    (s2.Mem_sim.l2_accesses > 0);
  Helpers.check_true "some L2 hits" (s2.Mem_sim.l2_hits > 0);
  Helpers.check_true "L1<->L2 traffic recorded" (s2.Mem_sim.l2_bytes_total > 0)

let test_l2_hit_is_onchip () =
  (* repeated conflict pair: misses L1 (same set), hits L2 after warmup *)
  let regions =
    [ { Mx_trace.Region.id = 0; name = "a"; base = 0; size = 1 lsl 20;
        elem_size = 4; hint = Mx_trace.Region.Random_access } ]
  in
  let arch =
    Mem_arch.make ~label:"x" ~cache:l1 ~l2:l2p ~bindings:[| Mem_arch.To_cache |] ()
  in
  let m = Mem_sim.create arch ~regions in
  let stride = 2048 in
  (* warm both lines into L2 *)
  ignore (Mem_sim.access m ~now:0 ~addr:0 ~size:4 ~write:false ~region:0);
  ignore (Mem_sim.access m ~now:1 ~addr:stride ~size:4 ~write:false ~region:0);
  ignore (Mem_sim.access m ~now:2 ~addr:(2 * stride) ~size:4 ~write:false ~region:0);
  (* 2-way set now overflows; this one misses L1 but hits L2 *)
  let o = Mem_sim.access m ~now:3 ~addr:0 ~size:4 ~write:false ~region:0 in
  Helpers.check_true "L2 hit served on-chip" o.Mem_sim.hit;
  Helpers.check_true "no off-chip critical transfer" (not o.Mem_sim.dram_critical);
  Helpers.check_true "L1<->L2 transfer happened" (o.Mem_sim.l2_bytes > 0)

let test_brg_has_l2_channels () =
  let w = Helpers.mixed_workload () in
  let arch = with_l2 w in
  let brg = Brg.build arch (Helpers.profile_of arch w) in
  let has src dst =
    List.exists
      (fun c -> c.Channel.src = src && c.Channel.dst = dst)
      brg.Brg.channels
  in
  Helpers.check_true "cache<->L2 channel" (has Channel.Cache Channel.L2);
  Helpers.check_true "L2<->DRAM channel" (has Channel.L2 Channel.Dram);
  Helpers.check_true "no direct cache<->DRAM channel"
    (not (has Channel.Cache Channel.Dram))

let test_cycle_sim_with_l2 () =
  let w = Helpers.mixed_workload () in
  let arch = with_l2 w in
  let brg = Brg.build arch (Helpers.profile_of arch w) in
  let conn = Helpers.naive_conn brg in
  let r = Mx_sim.Cycle_sim.run ~workload:w ~arch ~conn () in
  Helpers.check_true "latency positive" (r.Mx_sim.Sim_result.avg_mem_latency > 0.0)

(* both evaluators reject a design without the cache<->L2 leg *)
let test_missing_l2_leg_rejected () =
  let w = Helpers.mixed_workload () in
  let arch = with_l2 w in
  let profile = Helpers.profile_of arch w in
  Test_sim.check_both_reject ~w ~arch ~profile ~channel:"cache<->L2"
    ~conn:
      (Test_sim.naive_without (Brg.build arch profile)
         (Test_sim.joins Channel.Cache Channel.L2))

let test_estimator_with_l2 () =
  let w = Helpers.mixed_workload () in
  let arch = with_l2 w in
  let profile = Helpers.profile_of arch w in
  let brg = Brg.build arch profile in
  let conn = Helpers.naive_conn brg in
  let e = Mx_sim.Estimator.estimate ~workload:w ~arch ~profile ~conn in
  let s = Mx_sim.Cycle_sim.run ~workload:w ~arch ~conn () in
  let ratio =
    e.Mx_sim.Sim_result.avg_mem_latency /. s.Mx_sim.Sim_result.avg_mem_latency
  in
  (* the tiny L1 + saturated off-chip bus is the estimator's worst case
     (the queueing approximation clamps utilisation); the search only
     needs fidelity, but the estimate should stay within ~2.5x here *)
  Helpers.check_true "estimate within 2.5x of simulation"
    (ratio > 0.4 && ratio < 2.5)

let test_apex_explores_l2 () =
  let p = Mx_trace.Profile.analyze (Helpers.mixed_workload ()) in
  let config =
    {
      Mx_apex.Explore.reduced_config with
      Mx_apex.Explore.l2s = [ l2p ];
      caches = [ l1 ];
    }
  in
  let cands = Mx_apex.Explore.candidates config p in
  Helpers.check_true "some candidates carry an L2"
    (List.exists (fun (a : Mem_arch.t) -> a.Mem_arch.l2 <> None) cands);
  Helpers.check_true "plain-L1 candidates remain"
    (List.exists
       (fun (a : Mem_arch.t) ->
         a.Mem_arch.cache <> None && a.Mem_arch.l2 = None)
       cands)

let test_apex_l2_size_filter () =
  (* an L2 smaller than the cache must not be offered *)
  let p = Mx_trace.Profile.analyze (Helpers.mixed_workload ~scale:2000 ()) in
  let big_l1 = { Params.c_size = 32768; c_line = 32; c_assoc = 2; c_latency = 2; c_policy = Params.default_policy } in
  let config =
    {
      Mx_apex.Explore.reduced_config with
      Mx_apex.Explore.l2s = [ l2p ] (* 16 KB < 32 KB L1 *);
      caches = [ big_l1 ];
    }
  in
  List.iter
    (fun (a : Mem_arch.t) ->
      Helpers.check_true "undersized L2 filtered out" (a.Mem_arch.l2 = None))
    (Mx_apex.Explore.candidates config p)

let suite =
  ( "l2",
    [
      Alcotest.test_case "validation" `Quick test_validation;
      Alcotest.test_case "cost includes L2" `Quick test_cost_includes_l2;
      Alcotest.test_case "L2 reduces misses" `Quick test_l2_reduces_offchip_misses;
      Alcotest.test_case "L2 hit is on-chip" `Quick test_l2_hit_is_onchip;
      Alcotest.test_case "BRG L2 channels" `Quick test_brg_has_l2_channels;
      Alcotest.test_case "cycle sim with L2" `Quick test_cycle_sim_with_l2;
      Alcotest.test_case "estimator with L2" `Quick test_estimator_with_l2;
      Alcotest.test_case "APEX explores L2" `Quick test_apex_explores_l2;
      Alcotest.test_case "APEX size filter" `Quick test_apex_l2_size_filter;
      Alcotest.test_case "both reject a missing L2 leg" `Quick
        test_missing_l2_leg_rejected;
    ] )
