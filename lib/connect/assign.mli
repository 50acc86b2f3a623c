(** Enumeration of feasible cluster-to-component assignments.

    For one clustering level, the candidate connectivity architectures
    are the cartesian product of each cluster's feasible component
    choices.  [enumerate_levels] walks every clustering level of a BRG,
    which is exactly the design space the [do/while] loop of the
    paper's [ConnectivityExploration] procedure visits. *)

val choices :
  onchip:Component.t list -> offchip:Component.t list -> Cluster.t ->
  Component.t list
(** Feasible components for one cluster (respecting fan-in and chip
    boundary). *)

val space : (Cluster.t * Component.t list) list -> int
(** Saturating product of the per-cluster choice counts: the size of the
    uncapped cartesian enumeration ([max_int] when it overflows, 0 when
    some cluster has no choice). *)

type level = {
  per_cluster : (Cluster.t * Component.t list) list;
      (** each cluster with its feasible {!choices}, in cluster order *)
  enumerated : int;
      (** designs the level yields under its cap: the smaller of the cap
          and {!space} of [per_cluster] *)
}
(** One feasible clustering level, ready to enumerate. *)

val levels :
  ?max_designs_per_level:int ->
  onchip:Component.t list ->
  offchip:Component.t list ->
  Cluster.t list list ->
  level option list
(** Resolve each clustering level's choices, in order, and record the
    accounting on the calling domain: [assign.levels] once, then per
    level either [None] (with the [assign.level_infeasible] event and
    the [assign.infeasible_levels] counter) when some cluster has no
    feasible component, or the level with
    [enumerated = min space max_designs_per_level] (with the
    [assign.level] event and the [assign.enumerated] /
    [assign.cap_pruned] counters). *)

val product :
  ?bound:(Cluster.t * Component.t) list ->
  cap:int ->
  (Cluster.t * Component.t list) list ->
  Conn_arch.t list
(** [product ?bound ~cap per_cluster]: the first [cap] designs of the
    cartesian product of [per_cluster]'s choices, in choice order, each
    prefixed by the fixed assignments [bound] (default none).  Silent:
    no events, no metrics, so it is safe on pool workers. *)

val dedup : ('a -> Conn_arch.t) -> 'a list -> 'a list
(** Keep the first element of each design, keyed by
    {!Conn_arch.describe}, in order: an [assign.kept] or
    [assign.rejected] event per element, the [assign.dedup_pruned]
    counter per duplicate and [assign.kept] for the survivors. *)

val enumerate :
  ?max_designs:int ->
  onchip:Component.t list ->
  offchip:Component.t list ->
  Cluster.t list ->
  Conn_arch.t list
(** All feasible assignments for one clustering level, capped at
    [max_designs] (default unlimited) to bound pathological products,
    with the per-level accounting of {!levels} (but no [assign.levels]
    count).  Returns [] when some cluster has no feasible component. *)

val enumerate_levels :
  ?order:Cluster.order ->
  ?max_designs_per_level:int ->
  onchip:Component.t list ->
  offchip:Component.t list ->
  Channel.t list ->
  Conn_arch.t list
(** Union over every clustering level ({!levels}, then {!product} per
    feasible level), deduplicated by {!dedup}.  [order] selects the merge policy (default
    {!Cluster.Lowest_bandwidth_first}, the paper's heuristic). *)

val count_levels : Channel.t list -> int
(** Number of clustering levels for a channel set (diagnostics and
    Table 2's exploration-size accounting). *)
