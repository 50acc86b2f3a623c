module Ev = Mx_util.Event_log

type kind = Pruned | Neighborhood | Full

exception Full_infeasible of { projected_sims : int; budget : int }

type outcome = {
  kind : kind;
  designs : Design.t list;
  pareto_cost_perf : Design.t list;
  n_estimates : int;
  n_simulations : int;
  wall_seconds : float;
}

let kind_to_string = function
  | Pruned -> "Pruned"
  | Neighborhood -> "Neighborhood"
  | Full -> "Full"

(* nearest non-selected estimates around each selected point, measured
   on span-normalised (cost, latency, energy) axes *)
let neighbors_of ~k selected all =
  let dist2 =
    Mx_util.Pareto.normalised_dist2
      ~axes:[ Design.cost; Design.latency; Design.energy ]
      all
  in
  let rest =
    List.filter
      (fun d -> not (List.exists (Design.equal_structure d) selected))
      all
  in
  List.concat_map
    (fun p ->
      rest
      |> List.map (fun d -> (dist2 p d, d))
      |> List.sort (fun (a, _) (b, _) -> Float.compare a b)
      |> List.filteri (fun i _ -> i < k)
      |> List.map snd)
    selected
  |> List.fold_left
       (fun acc d ->
         if List.exists (Design.equal_structure d) acc then acc else d :: acc)
       []
  |> List.rev

(* [front] is the strategy's cost/latency front — the anytime archive's
   emission for the sweeps that feed one ({!Explore.evaluate_designs}
   with [~archive]), which with the default (exact, unbounded) archive
   settings equals [Pareto.front2] over [simulated]. *)
let finish kind ~n_estimates ~t0 ~front simulated =
  let m = Mx_util.Metrics.global in
  let label = String.lowercase_ascii (kind_to_string kind) in
  Mx_util.Metrics.incr m ("strategy." ^ label ^ ".runs");
  Mx_util.Metrics.incr m ~by:n_estimates ("strategy." ^ label ^ ".estimates");
  Mx_util.Metrics.incr m ~by:(List.length simulated)
    ("strategy." ^ label ^ ".simulations");
  (* no wall seconds in the event: timings are never deterministic *)
  if Ev.is_on Ev.global then
    Ev.emit Ev.global ~stage:"strategy" "strategy.end"
      [
        ("kind", Ev.Str label);
        ("estimates", Ev.Int n_estimates);
        ("simulations", Ev.Int (List.length simulated));
      ];
  {
    kind;
    designs = simulated;
    pareto_cost_perf = front;
    n_estimates;
    n_simulations = List.length simulated;
    wall_seconds = Unix.gettimeofday () -. t0;
  }

let run ?(config = Explore.default_config) ?(neighbors = 2)
    ?(full_budget = 300_000) kind workload =
  Mx_util.Metrics.with_span Mx_util.Metrics.global
    ("strategy." ^ String.lowercase_ascii (kind_to_string kind))
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  Mx_util.Snapshot.set_phase
    ("strategy." ^ String.lowercase_ascii (kind_to_string kind));
  if Ev.is_on Ev.global then
    Ev.emit Ev.global ~stage:"strategy" "strategy.begin"
      [ ("kind", Ev.Str (String.lowercase_ascii (kind_to_string kind))) ];
  match kind with
  | Pruned ->
    let r = Explore.run ~config workload in
    finish Pruned ~n_estimates:r.Explore.n_estimates ~t0
      ~front:r.Explore.pareto_cost_perf r.Explore.simulated
  | Neighborhood ->
    let profile = Mx_trace.Profile.analyze workload in
    (* widen the memory-architecture net: the full APEX pareto front *)
    let apex_front =
      Mx_apex.Explore.explore ~config:config.Explore.apex
        ~jobs:config.Explore.jobs profile
      |> Mx_apex.Explore.pareto
    in
    (* one shard queue across every front architecture *)
    let per_arch =
      match Explore.phase1 config workload apex_front with
      | Some ests -> ests
      | None -> assert false (* no interrupt hook on strategies *)
    in
    let n_estimates =
      List.fold_left (fun acc ests -> acc + List.length ests) 0 per_arch
    in
    let survivors =
      List.concat_map
        (fun ests ->
          let selected = Explore.local_promising config ests in
          let nbrs = neighbors_of ~k:neighbors selected ests in
          if Ev.is_on Ev.global then
            List.iter
              (fun (d : Design.t) ->
                Ev.emit Ev.global ~stage:"phase1" "design.neighbor"
                  [ ("design", Ev.Str (Design.structural_key d)) ])
              nbrs;
          selected @ nbrs)
        per_arch
    in
    let archive = Explore.make_archive config in
    let simulated =
      Explore.evaluate_designs config workload ~stage:"phase2"
        ~fidelity:(Explore.fidelity_of_sample config.Explore.sample)
        ~archive survivors
    in
    finish Neighborhood ~n_estimates ~t0
      ~front:(Mx_util.Pareto.Archive.front archive)
      simulated
  | Full ->
    let profile = Mx_trace.Profile.analyze workload in
    let all_archs =
      Mx_apex.Explore.explore ~config:config.Explore.apex
        ~jobs:config.Explore.jobs profile
    in
    (* project the simulation count before committing *)
    let per_arch =
      List.map
        (fun (cand : Mx_apex.Explore.candidate) ->
          let brg =
            Mx_connect.Brg.build cand.Mx_apex.Explore.arch
              cand.Mx_apex.Explore.profile
          in
          let conns =
            Mx_connect.Assign.enumerate_levels
              ~max_designs_per_level:config.Explore.max_designs_per_level
              ~onchip:config.Explore.onchip ~offchip:config.Explore.offchip
              brg.Mx_connect.Brg.channels
          in
          (cand, conns))
        all_archs
    in
    let projected =
      List.fold_left (fun acc (_, cs) -> acc + List.length cs) 0 per_arch
    in
    if Ev.is_on Ev.global then
      Ev.emit Ev.global ~stage:"strategy" "strategy.full.projection"
        [ ("projected", Ev.Int projected); ("budget", Ev.Int full_budget) ];
    if projected > full_budget then begin
      if Ev.is_on Ev.global then
        Ev.emit Ev.global ~stage:"strategy" "strategy.full.infeasible"
          [ ("projected", Ev.Int projected); ("budget", Ev.Int full_budget) ];
      raise (Full_infeasible { projected_sims = projected; budget = full_budget })
    end;
    (* design records are built serially so their [design.created]
       events carry deterministic sequence numbers; only the
       simulations themselves fan out *)
    let designs =
      List.concat_map
        (fun ((cand : Mx_apex.Explore.candidate), conns) ->
          List.map
            (fun conn ->
              let d =
                Design.make ~workload_name:workload.Mx_trace.Workload.name
                  ~mem:cand.Mx_apex.Explore.arch ~conn ()
              in
              if Ev.is_on Ev.global then
                Ev.emit Ev.global ~stage:"phase1" "design.created"
                  [
                    ("design", Ev.Str (Design.structural_key d));
                    ("id", Ev.Str (Design.id d));
                    ( "arch",
                      Ev.Str cand.Mx_apex.Explore.arch.Mx_mem.Mem_arch.label );
                  ];
              d)
            conns)
        per_arch
    in
    let archive = Explore.make_archive config in
    let simulated =
      Explore.evaluate_designs config workload ~stage:"phase2"
        ~fidelity:(Explore.fidelity_of_sample config.Explore.sample)
        ~archive designs
    in
    finish Full ~n_estimates:0 ~t0
      ~front:(Mx_util.Pareto.Archive.front archive)
      simulated
