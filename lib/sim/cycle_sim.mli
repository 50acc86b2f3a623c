(** Trace-driven cycle simulation of a combined memory + connectivity
    architecture (the SIMPRESS-replacement).

    Models an in-order CPU that blocks on memory references.  Each
    access travels: CPU -> serving module over the component carrying
    that channel (arbitration wait + serialization beats), then — on a
    demand miss — module -> DRAM over the off-chip component (wait +
    beats + DRAM row-buffer latency).  Non-critical traffic
    (prefetches, writebacks) occupies the off-chip component and
    perturbs later accesses without stalling the CPU.  Components that
    are not split-transaction stay held for the whole miss path.

    Time-sampling mode ([~sample:(on, off)], Kessler-style) keeps
    module state warm on every access but only accumulates timing
    during "on" windows; the paper uses a 1/9 on/off ratio.

    The simulator consumes a {!Mx_trace.Trace_stream.t}: the in-memory
    entry points ({!run}, {!run_traced}) wrap their trace in a
    zero-copy stream, and {!run_stream} replays a file-backed stream
    (e.g. {!Mx_trace.Trace_io.open_stream}) chunk by chunk in constant
    memory.  Both paths walk the identical access sequence with the
    identical arithmetic, so their results are byte-identical —
    including under [~sample]. *)

type cpu_model =
  | Blocking
      (** in-order CPU that stalls on every reference — the paper's
          model *)
  | Overlap of int
      (** non-blocking loads with the given number of MSHRs: a demand
          miss occupies a slot and completes in the background; the CPU
          only stalls when all slots are busy.  An optimistic bound used
          by the MLP ablation ("would the connectivity ranking change if
          the CPU could overlap misses?"). *)

val run :
  ?sample:int * int ->
  ?cpu:cpu_model ->
  workload:Mx_trace.Workload.t ->
  arch:Mx_mem.Mem_arch.t ->
  conn:Mx_connect.Conn_arch.t ->
  unit ->
  Sim_result.t
(** [cpu] defaults to [Blocking].
    @raise Invalid_argument when the trace exercises a channel the
    connectivity architecture does not implement, when sampling windows
    are non-positive, or when [Overlap n] has [n <= 0]. *)

val default_sample : int * int
(** (1000, 9000): the paper's 1/9 on/off time-sampling ratio. *)

(** Per-component-instance utilisation, for designer reports ("which bus
    is the bottleneck?"). *)
type bus_stat = {
  component : string;  (** library component name *)
  carries : string;  (** the cluster (channel set) it implements *)
  txns : int;  (** transactions carried *)
  busy_cycles : int;  (** cycles the component was occupied *)
  wait_cycles : int;  (** cycles CPU-visible requests queued behind it *)
  utilization : float;  (** busy / total execution cycles *)
}

val run_traced :
  ?sample:int * int ->
  ?cpu:cpu_model ->
  workload:Mx_trace.Workload.t ->
  arch:Mx_mem.Mem_arch.t ->
  conn:Mx_connect.Conn_arch.t ->
  unit ->
  Sim_result.t * bus_stat list
(** {!run} plus the per-component utilisation breakdown (one entry per
    connectivity binding, in binding order). *)

val run_stream :
  ?sample:int * int ->
  ?cpu:cpu_model ->
  ?seek:bool ->
  workload:Mx_trace.Workload.streamed ->
  arch:Mx_mem.Mem_arch.t ->
  conn:Mx_connect.Conn_arch.t ->
  unit ->
  Sim_result.t
(** Replay a streamed workload.  With [seek:false] (the default) every
    chunk is fetched in order and the result is byte-identical to
    materialising the stream and calling {!run} — the property the
    [trace] check suite pins down.

    [~seek:true] (requires [~sample]) is {e cold sampling}: chunks that
    fall entirely inside "off" windows are never fetched — no I/O, no
    decode, and {e no module-state warming} from the skipped spans
    (compute-gap phase is still advanced exactly).  On a 1/9 sampling
    ratio with the default chunk size this reads under a quarter of the
    file's chunks, at the cost of colder caches in the on-windows than
    warm (seekless) sampling would give; use it for interactive scans
    of very large traces, not for golden numbers.
    @raise Invalid_argument for [~seek:true] without [~sample]. *)

val record_utilization_gauges : ?registry:Mx_util.Metrics.t -> unit -> unit
(** Derive [cycle_sim.bus.<component>.utilization] gauges (aggregate
    busy cycles / total simulated cycles, per component type, across
    every simulation recorded so far) from the registry's
    [cycle_sim.bus.*] counters.  Deterministic because it is computed
    from schedule-invariant counters; call it after a run, before
    rendering.  Defaults to {!Mx_util.Metrics.global}. *)
