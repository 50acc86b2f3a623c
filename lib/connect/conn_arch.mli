(** A connectivity architecture: an assignment of every logical
    connection (cluster) to a physical component instance from the
    library — e.g. Fig. 2(b) of the paper: two AMBA buses, one
    dedicated connection, one off-chip bus. *)

type binding = { cluster : Cluster.t; component : Component.t }

type t = private {
  bindings : binding list;
  cost_gates : int;  (** total connectivity area *)
}

val make : (Cluster.t * Component.t) list -> t
(** @raise Invalid_argument when a component cannot legally carry its
    cluster (fan-in exceeded, or boundary class mismatch). *)

val feasible : Cluster.t -> Component.t -> bool
(** The static legality check [make] enforces per binding. *)

(** A routed leg: the component instance that carries a channel. *)
type leg = {
  comp : Component.t;
  index : int;  (** position of the carrying binding in [bindings] *)
  shared : bool;
      (** the binding's cluster carries more than this one channel, so
          transactions on it contend *)
}

val route : t -> Channel.node -> Channel.node -> leg option
(** [route t src dst] is the leg of the first binding whose cluster
    carries a channel with endpoints [src] and [dst] (in either
    direction), or [None] when no binding does.  This is the one
    channel router: the analytical estimator and the cycle simulator
    both take their legs from it (through [Serving.path]). *)

val fingerprint : t -> string
(** Canonical structural fingerprint, insensitive to the order of
    bindings and of channels within a cluster (and to channel
    direction): two architectures binding the same channel sets to the
    same library components fingerprint identically, however they were
    assembled.  Changing a component or moving a channel between
    clusters changes the fingerprint.  Safe as a content-address for
    evaluation results. *)

val describe : t -> string
(** e.g. ["ahb32{CPU<->cache} + off32{cache<->DRAM}"]. *)

val pp : Format.formatter -> t -> unit
