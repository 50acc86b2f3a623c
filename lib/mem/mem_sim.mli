(** Module-level routing simulation.

    Instantiates the stateful module simulators of a {!Mem_arch} and
    routes each trace access to its serving module, reporting hits,
    misses and the off-chip traffic each access causes.  This is the
    paper's "Profile the Memory Modules Architecture" step: BRG arc
    bandwidths, miss ratios and energy all derive from it; the cycle
    simulator layers connectivity timing on the same events. *)

type t

(** Which module serves an access — also identifies the CPU-side
    channel it travels on. *)
type serving = By_cache | By_sram | By_sbuf | By_lldma | By_dram_direct

val all_servings : serving list
(** Every serving class, in {!serving_index} order. *)

val serving_index : serving -> int
(** Dense 0..4 index, for per-class arrays. *)

type outcome = {
  serving : serving;
  hit : bool;
      (** true when served on-chip without an off-chip transfer on the
          critical path ([By_sram] is always a hit; [By_dram_direct]
          never is) *)
  dram_bytes : int;
      (** bytes moved between the serving module and DRAM because of
          this access (line fills, writebacks, prefetches) *)
  dram_txns : int;  (** number of distinct off-chip bursts *)
  dram_critical : bool;
      (** true when the CPU waits for the off-chip transfer (demand
          miss); false for prefetches/writebacks that overlap *)
  l2_bytes : int;
      (** bytes moved between the L1 cache and the L2 because of this
          access (fills and L1 writebacks); 0 without an L2 *)
  l2_txns : int;  (** distinct L1<->L2 bursts *)
  l2_critical : bool;
      (** true when the CPU waits on the L1<->L2 transfer (any L1
          demand miss when an L2 exists) *)
  extra_latency : int;
      (** additional on-chip cycles beyond the serving module's base
          latency (victim-buffer hit recovery) *)
  extra_energy : float;
      (** additional nJ beyond the serving module's access energy
          (victim probes, write-buffer CAM) *)
}

val create : Mem_arch.t -> regions:Mx_trace.Region.t list -> t
(** Fresh simulation state.  @raise Invalid_argument when a region id
    exceeds the architecture's binding table. *)

val arch : t -> Mem_arch.t

val access :
  t -> now:int -> addr:int -> size:int -> write:bool -> region:int -> outcome
(** Route one access.  [now] is the CPU access index (monotone). *)

val dram : t -> Dram.t
(** The shared off-chip DRAM model (row-buffer state). *)

(** Aggregate counters after a run. *)
type stats = {
  accesses : int;
  on_chip_hits : int;
  demand_misses : int;  (** accesses whose critical path went off-chip *)
  dram_bytes_total : int;
  cpu_bytes : serving -> int;  (** CPU-side bytes per serving module *)
  cpu_accesses : serving -> int;  (** CPU-side accesses per serving module *)
  dram_bytes_by : serving -> int;
      (** module-to-DRAM bytes per serving module *)
  dram_txns_by : serving -> int;
      (** module-to-DRAM bursts per serving module *)
  demand_misses_by : serving -> int;
      (** CPU-blocking misses per serving module *)
  victim_hits : int;  (** misses recovered by the victim buffer *)
  wbuf_stalls : int;  (** stores that found the write buffer full *)
  l2_accesses : int;  (** L1 demand misses that probed the L2 *)
  l2_hits : int;  (** of which served on-chip by the L2 *)
  l2_bytes_total : int;  (** total L1<->L2 traffic *)
  l2_txns_total : int;
}

val snapshot : t -> stats
(** Current counters (cheap copy); usable mid-run. *)

val run : t -> Mx_trace.Trace.t -> stats
(** Convenience: route a whole trace and summarise, access [i] at
    [~now:i]; the per-access outcomes are folded into the stats and not
    retained. *)

(** {2 Many architectures at once}

    {!access} sends each region to exactly one module chain: the cache
    (with its optional victim buffer and L2), the SRAM, the stream
    buffer, the LL-DMA, or direct DRAM (with its optional write buffer
    when there is no cache).  A chain's state is private: no chain's
    [access] reads another chain's modules or the shared {!dram}.  So an
    architecture's stats are the field-wise sum of per-chain
    sub-results, and a sub-result depends only on the chain's module
    parameters and on the accesses of the regions bound to it — replayed
    in trace order with their {e original} trace index as [now], because
    the LL-DMA and the write buffer read [now].  A new module whose
    [access] reads another chain's state, or the DRAM model, must add
    what it reads to the chain key. *)

type sweep = {
  stats : stats list;
      (** one per architecture, in input order; each equal, serving by
          serving, to {!run} over a fresh {!create} *)
  chains : int;
      (** distinct (chain parameters, bound region set) pairs simulated;
          pairs whose regions have no access are not simulated *)
  replayed : int;  (** accesses replayed over all simulated chains *)
}

val run_all :
  ?jobs:int ->
  regions:Mx_trace.Region.t list ->
  Mx_trace.Trace.t ->
  Mem_arch.t list ->
  sweep
(** [run_all ~regions trace archs] is [List.map (fun a -> run (create a
    ~regions) trace) archs], computed by simulating each distinct chain
    once: chains are keyed in first-occurrence order, one index array is
    built per distinct region set, the chains run on
    {!Mx_util.Task_pool.parallel_map} with [jobs] domains (default
    {!Mx_util.Task_pool.default_jobs}), and each architecture's
    sub-results are summed.  The result is independent of [jobs].
    @raise Invalid_argument as {!create} and {!run} would. *)

module Testing : sig
  val run_all_local_now :
    ?jobs:int ->
    regions:Mx_trace.Region.t list ->
    Mx_trace.Trace.t ->
    Mem_arch.t list ->
    sweep
  (** A deliberately broken {!run_all} that replays each chain with its
      position in the chain's sub-trace as [now] instead of the original
      trace index.  Wrong whenever an LL-DMA or write-buffer region
      interleaves with other chains' accesses; used by the check
      harness to prove that its comparison catches such a defect. *)
end

val miss_ratio : stats -> float
(** Demand misses / accesses — the paper's Fig. 3 Y axis ("accesses to
    off-chip memory are misses"). *)
