module Metrics = Mx_util.Metrics
module Event_log = Mx_util.Event_log

let choices ~onchip ~offchip (cl : Cluster.t) =
  let pool = if cl.Cluster.offchip then offchip else onchip in
  List.filter (Conn_arch.feasible cl) pool

(* Saturating product of the per-cluster choice counts: the size the
   cartesian enumeration would have without a cap.  Design spaces
   overflow a 63-bit int long before they overflow anything else. *)
let space per_cluster =
  List.fold_left
    (fun acc (_, cs) ->
      let n = List.length cs in
      if n = 0 then 0
      else if acc > max_int / max 1 n then max_int
      else acc * n)
    1 per_cluster

type level = {
  per_cluster : (Cluster.t * Component.t list) list;
  enumerated : int;
}

let level ?(max_designs = max_int) ~onchip ~offchip clusters =
  let per_cluster = List.map (fun cl -> (cl, choices ~onchip ~offchip cl)) clusters in
  if List.exists (fun (_, cs) -> cs = []) per_cluster then begin
    Metrics.incr Metrics.global "assign.infeasible_levels";
    if Event_log.is_on Event_log.global then
      Event_log.emit Event_log.global ~stage:"assign" "assign.level_infeasible"
        [
          ("clusters", Event_log.Int (List.length clusters));
          ("reason", Event_log.Str "no_feasible_component");
        ];
    None
  end
  else begin
    let space = space per_cluster in
    let enumerated = min space (max 0 max_designs) in
    let cap_pruned = space - enumerated in
    if Metrics.is_on Metrics.global then begin
      Metrics.incr Metrics.global ~by:enumerated "assign.enumerated";
      Metrics.incr Metrics.global ~by:cap_pruned "assign.cap_pruned"
    end;
    if Event_log.is_on Event_log.global then
      Event_log.emit Event_log.global ~stage:"assign" "assign.level"
        [
          ("clusters", Event_log.Int (List.length clusters));
          ("enumerated", Event_log.Int enumerated);
          ("cap_pruned", Event_log.Int cap_pruned);
        ];
    Some { per_cluster; enumerated }
  end

let levels ?max_designs_per_level ~onchip ~offchip levels =
  Metrics.incr Metrics.global ~by:(List.length levels) "assign.levels";
  List.map (level ?max_designs:max_designs_per_level ~onchip ~offchip) levels

let product ?(bound = []) ~cap per_cluster =
  let out = ref [] and count = ref 0 in
  let rec go acc = function
    | [] ->
      if !count < cap then begin
        out := Conn_arch.make (List.rev acc) :: !out;
        incr count
      end
    | (cl, cs) :: rest ->
      List.iter (fun c -> if !count < cap then go ((cl, c) :: acc) rest) cs
  in
  go (List.rev bound) per_cluster;
  List.rev !out

let enumerate_level l = product ~cap:l.enumerated l.per_cluster

let enumerate ?max_designs ~onchip ~offchip clusters =
  match level ?max_designs ~onchip ~offchip clusters with
  | None -> []
  | Some l -> enumerate_level l

let dedup conn_of xs =
  let seen = Hashtbl.create 64 in
  let kept =
    List.filter
      (fun x ->
        let key = Conn_arch.describe (conn_of x) in
        if Hashtbl.mem seen key then begin
          Metrics.incr Metrics.global "assign.dedup_pruned";
          if Event_log.is_on Event_log.global then
            Event_log.emit Event_log.global ~stage:"assign" "assign.rejected"
              [
                ("conn", Event_log.Str key);
                ("reason", Event_log.Str "duplicate");
              ];
          false
        end
        else begin
          Hashtbl.add seen key ();
          if Event_log.is_on Event_log.global then
            Event_log.emit Event_log.global ~stage:"assign" "assign.kept"
              [ ("conn", Event_log.Str key) ];
          true
        end)
      xs
  in
  Metrics.incr Metrics.global ~by:(List.length kept) "assign.kept";
  kept

let enumerate_levels ?(order = Cluster.Lowest_bandwidth_first)
    ?max_designs_per_level ~onchip ~offchip channels =
  Cluster.levels_ordered order channels
  |> levels ?max_designs_per_level ~onchip ~offchip
  |> List.concat_map (function None -> [] | Some l -> enumerate_level l)
  |> dedup Fun.id

let count_levels channels = List.length (Cluster.levels channels)
