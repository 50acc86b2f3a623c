(** Serving-class helpers shared by the analytical estimator and the
    cycle simulator.

    Both evaluators reason about the same five serving classes (which
    module answered a CPU access) and agree on the per-class connectivity
    legs, module latency/energy, and the critical-word-first demand
    share of an off-chip fill.  Keeping one copy here guarantees the two
    fidelity levels cannot silently diverge on these ground truths.  The
    classes themselves, their dense index and their connectivity
    endpoint are {!Mx_mem.Mem_sim.all_servings},
    {!Mx_mem.Mem_sim.serving_index} and {!Mx_connect.Channel.of_serving}. *)

type leg = (Mx_connect.Conn_arch.leg, string) result
(** A routed leg, or [Error ends] naming the channel no binding carries
    (e.g. ["cache<->DRAM"]). *)

type path = {
  cpu : leg;  (** CPU <-> the serving module *)
  l2 : leg option;
      (** cache <-> L2; [None] when the class's traffic does not cross
          an L2 *)
  dram : leg;
      (** the off-chip leg: from the L2 for the cache of an L2
          architecture, from the module otherwise, and the CPU leg
          itself for a direct DRAM access *)
}

val path :
  Mx_connect.Conn_arch.t -> has_l2:bool -> Mx_mem.Mem_sim.serving -> path
(** Every leg a serving class's traffic can take, each routed by
    {!Mx_connect.Conn_arch.route}.  A missing leg is not an error here:
    each evaluator decides when it needs one (the cycle simulator per
    access, the estimator when the profile has traffic on it) and then
    calls {!require}. *)

val require : string -> leg -> Mx_connect.Conn_arch.leg
(** [require who leg] is the routed leg.
    @raise Invalid_argument naming [who] and the missing channel. *)

val dram_core_latency : unit -> float
(** Average DRAM core latency of the library DRAM part assuming a mixed
    row-hit/miss stream. *)

val cwf_bytes : int
(** Critical-word-first width: the CPU resumes once this many bytes of a
    fill have arrived; the rest streams in behind. *)

val module_latency : Mx_mem.Mem_arch.t -> Mx_mem.Mem_sim.serving -> int
(** On-chip access latency of the module serving this class (0 for a
    direct DRAM access — the DRAM core time is accounted separately). *)

val module_energy :
  Mx_mem.Mem_arch.t -> Mx_mem.Mem_sim.serving -> write:bool -> float
(** Per-access energy of the serving module, in nJ. *)

val critical_bytes :
  Mx_mem.Mem_arch.t ->
  Mx_mem.Mem_sim.serving ->
  lldma_bytes:int ->
  fallback:int ->
  int
(** Demand (CPU-blocking) bytes of an off-chip transfer for this class:
    [min line cwf_bytes] for line-based modules, [min lldma_bytes
    cwf_bytes] for the linked-list DMA (whose transfer unit is dynamic),
    [fallback] when the class has no backing module or hits DRAM
    directly, and [0] for SRAM (never off-chip).  The estimator passes
    the architecture's static element width and a 4-byte fallback; the
    cycle simulator passes the observed transfer size. *)
