(* conex-bench: the repository's benchmark.

   Three workloads, each built so that one layer of the exploration flow
   does most of the work (see README.md for the table and the
   layer -> end-to-end metric map):

   - compress-explore  Explore.run, APEX-bound
   - li-explore        Explore.run, Phase I filter-bound
   - vocoder-restart   cold Explore.run writing a fresh store, then a
                       simulated restart that reads it back

   Every timed call starts with an empty Eval hot tier, no store attached
   and a fresh copy of the workload record (so the fingerprint memo is
   cold too); only the warm arm of vocoder-restart reads a store, the
   one its own cold arm wrote.  The Metrics registry stays disabled.

   [--trace 0] times the public entry points untouched and reports the
   end-to-end metrics; [--trace 1] re-drives the same pipeline from its
   public pieces, timing each from outside, checks the result equals the
   untraced call's byte for byte, and reports the per-layer metrics.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module W = Mx_trace.Workload
module X = Conex.Explore
module Design = Conex.Design
module Eval = Mx_sim.Eval
module Sim_result = Mx_sim.Sim_result
module Apex = Mx_apex.Explore
module Pareto = Mx_util.Pareto

let jobs = 2

(* -- workloads ---------------------------------------------------------- *)

type spec = {
  name : string;
  kernel : string;
  scale : int;
  generate : scale:int -> seed:int -> W.t;
  traces : int;  (** traces in a run's suite, see [setup] *)
  config : X.config;  (** of the timed [Explore.run] *)
  restart : bool;
      (** cold arm writes a fresh store; a timed restart arm reloads the
          trace from MXTB, reopens the store and re-runs warm *)
}

let specs =
  [
    {
      name = "compress-explore";
      kernel = "compress";
      (* the compress kernel always emits at least one 8 KiB input block,
         ~64k accesses: the smallest trace it makes *)
      scale = 12_000;
      generate = Mx_trace.Kern_compress.generate;
      traces = 4;
      config = { X.default_config with jobs };
      restart = false;
    };
    {
      name = "li-explore";
      kernel = "li";
      scale = 10_000;
      generate = Mx_trace.Kern_li.generate;
      traces = 3;
      config = { X.default_config with jobs };
      restart = false;
    };
    {
      name = "vocoder-restart";
      kernel = "vocoder";
      scale = 20_000;
      generate = Mx_trace.Kern_vocoder.generate;
      traces = 12;
      config = { X.default_config with jobs };
      restart = true;
    };
  ]

(* -- correctness pins ---------------------------------------------------

   Front digest (MD5 of the canonical form of the final cost/latency
   front), n_estimates and n_simulations produced by the current code at
   the given seed.  Other seeds are checked by the seed-independent
   invariants below (iteration-to-iteration identity, traced == untraced,
   warm == cold, jobs=1 == jobs=2). *)
let pins =
  [
    (* (workload, seed, trace, front digest, n_estimates, n_simulations) *)
    ("compress-explore", 7, 0, "9845ee38aadf4af1279eb8b4b0e21828", 14276, 132);
    ("compress-explore", 7, 1, "d9a86681232f85ef73a8dc56536c33a0", 14066, 108);
    ("compress-explore", 7, 2, "9e62e213467d7e8b0259bce297c5a84f", 14276, 132);
    ("compress-explore", 7, 3, "c0732c721456eb5ef4e66dd356089148", 14714, 132);
    ("li-explore", 7, 0, "60ac04cc716eab3832cb5db3a28516bf", 35284, 131);
    ("li-explore", 7, 1, "9d6f0e97cdc8a85a6b4b21a35203530a", 32394, 131);
    ("li-explore", 7, 2, "9969b98413cf6f9be4b6bd446d722b3d", 35284, 131);
    ("vocoder-restart", 7, 0, "0b2f467637f255855711d87bac586e82", 14142, 96);
    ("vocoder-restart", 7, 1, "2a14862b2bf4d6c17be763da4ed8b24b", 14142, 96);
    ("vocoder-restart", 7, 2, "4dbac6a596b93cb50e4fc35e95e8ba51", 10238, 96);
    ("vocoder-restart", 7, 3, "c6727443cb28dfb1b383256a89bb5d90", 14142, 96);
    ("vocoder-restart", 7, 4, "6dd221aeaeaae0cd3c902c74f8d3064b", 14142, 96);
    ("vocoder-restart", 7, 5, "25c8385a5a6ca02a2128b4cd5e5c76be", 14142, 96);
    ("vocoder-restart", 7, 6, "c4ac0bed8492e1518d9fe8eea7844eb9", 14142, 96);
    ("vocoder-restart", 7, 7, "7fb79cf51399f3824940ee5da8d4f48f", 10238, 96);
    ("vocoder-restart", 7, 8, "25f8c8b7fe2c1a92324495e7fa1c465a", 10238, 96);
    ("vocoder-restart", 7, 9, "1dd055c6f6db57d98b84efa9b3f9747d", 14142, 96);
    ("vocoder-restart", 7, 10, "f79291f89da857e2a9fb9417218207b0", 14142, 96);
    ("vocoder-restart", 7, 11, "c5608a664b6f67b49dd9b5790befdc32", 10238, 96);
  ]

(* -- canonical result form ---------------------------------------------- *)

let wire = function None -> "-" | Some r -> Sim_result.to_wire r

let design_line (d : Design.t) =
  String.concat "\t"
    [
      Design.structural_key d;
      string_of_int d.Design.cost_gates;
      wire d.Design.est;
      wire d.Design.sim;
    ]

let designs_blob ds = String.concat "\n" (List.map design_line ds)

type outcome = {
  blob : string;  (** every estimate, simulation and front point *)
  front : Design.t list;
  front_digest : string;
  n_estimates : int;
  n_simulations : int;
  simulated : Design.t list;
}

let outcome ~apex ~estimated ~simulated ~front ~n_estimates ~n_simulations =
  let front_blob = designs_blob front in
  {
    blob =
      String.concat "\n--\n"
        [
          String.concat " " apex;
          designs_blob estimated;
          designs_blob simulated;
          front_blob;
          string_of_int n_estimates;
          string_of_int n_simulations;
        ];
    front;
    front_digest = Digest.to_hex (Digest.string front_blob);
    n_estimates;
    n_simulations;
    simulated;
  }

let arch_labels cands =
  List.map (fun (c : Apex.candidate) -> c.Apex.arch.Mx_mem.Mem_arch.label) cands

let of_explore (r : X.result) =
  outcome ~apex:(arch_labels r.X.apex_selected) ~estimated:r.X.estimated
    ~simulated:r.X.simulated ~front:r.X.pareto_cost_perf
    ~n_estimates:r.X.n_estimates ~n_simulations:r.X.n_simulations

(* -- measurement helpers ------------------------------------------------ *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* peak resident memory of this process (Linux VmHWM) *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* a fresh record per timed call: Eval memoises the workload fingerprint
   by physical identity, and a cold run must pay for it *)
let fresh (w : W.t) = { w with W.cpu_ops = w.W.cpu_ops }

let cold () =
  Eval.close_persist ();
  Eval.clear_cache ()

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir path =
  rm_rf path;
  Sys.mkdir path 0o755

let open_store dir =
  match Eval.open_persist ~dir with
  | Ok () -> ()
  | Error e -> failwith ("open_persist: " ^ e)

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

(* -- failures and checks ------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0
let checks_ok = ref true

let check name ok detail =
  Printf.printf "CHECK %-44s %s%s\n%!" name
    (if ok then "PASS" else "FAIL")
    (if detail = "" then "" else "  (" ^ detail ^ ")");
  if not ok then checks_ok := false

(* one operation: any exception or failed check inside it counts it as
   failed; it is never dropped from the sample *)
let operation name f =
  incr attempted;
  let before = !checks_ok in
  checks_ok := true;
  let r =
    match f () with
    | v -> if !checks_ok then Some v else None
    | exception e ->
      check (name ^ " raised") false (Printexc.to_string e);
      None
  in
  if r = None then incr failed;
  checks_ok := before && !checks_ok;
  r

let check_pin spec seed i (o : outcome) =
  match
    List.find_opt (fun (w, s, t, _, _, _) -> w = spec.name && s = seed && t = i) pins
  with
  | None -> ()
  | Some (_, _, _, digest, n_est, n_sim) ->
    check "pinned front digest" (o.front_digest = digest) o.front_digest;
    check "pinned n_estimates" (o.n_estimates = n_est)
      (string_of_int o.n_estimates);
    check "pinned n_simulations" (o.n_simulations = n_sim)
      (string_of_int o.n_simulations)

(* seed-independent invariants of any result *)
let check_invariants (o : outcome) =
  check "front non-empty" (o.front <> []) "";
  let sims = List.filter_map (fun (d : Design.t) -> d.Design.sim) o.simulated in
  check "every simulated design carries a simulation"
    (List.length sims = o.n_simulations)
    "";
  check "front equals Pareto.front2 of the simulated designs"
    (designs_blob o.front
    = designs_blob
        (Pareto.front2 ~x:Design.cost ~y:Design.latency o.simulated))
    ""

(* -- the untraced pipeline ---------------------------------------------- *)

(* the timed call: nothing but the public entry point *)
let call spec w = X.run ~config:spec.config w

(* -- set-up -------------------------------------------------------------

   A run explores a suite of [spec.traces] traces made from the seed:
   trace [i] uses kernel seed [seed + i * 1_000_003], so trace 0 is the
   one `conex explore --seed N` sees.  The work a trace makes varies by
   about 10% from seed to seed (Mem_sim and the Pareto filter are
   data-dependent); averaging over a suite keeps one run's figures close
   to the next run's. *)

let work_root = Filename.concat "conex-bench" "_work"

type input = {
  w : W.t;
  mxtb : string;  (** path of the MXTB copy of the trace *)
}

type setup = {
  inputs : input list;
  setup_s : float;  (** median over [setup_reps] *)
  generate_s : float;  (** median trace generation alone, per trace *)
}

let setup_reps = 15

let mxtb_path spec i =
  Filename.concat work_root (Printf.sprintf "%s-%d.mxtb" spec.name i)
let trace_seed seed i = seed + (i * 1_000_003)

let setup spec seed =
  if not (Sys.file_exists work_root) then Sys.mkdir work_root 0o755;
  let once () =
    let t0 = now () in
    let ws =
      List.init spec.traces (fun i ->
          spec.generate ~scale:spec.scale ~seed:(trace_seed seed i))
    in
    let t1 = now () in
    let inputs =
      List.mapi
        (fun i w ->
          let mxtb = mxtb_path spec i in
          if spec.restart then Mx_trace.Trace_io.save ~format:Binary w ~path:mxtb;
          { w; mxtb })
        ws
    in
    (inputs, t1 -. t0, now () -. t0)
  in
  let runs = List.init setup_reps (fun _ -> once ()) in
  let fps (inputs, _, _) = List.map (fun i -> W.fingerprint i.w) inputs in
  let inputs, _, _ = List.hd runs in
  check "set-up is deterministic"
    (List.for_all (fun r -> fps r = fps (List.hd runs)) runs)
    "";
  {
    inputs;
    setup_s = median (List.map (fun (_, _, s) -> s) runs);
    generate_s =
      median (List.map (fun (_, g, _) -> g) runs) /. float_of_int spec.traces;
  }

(* -- warm-up ---------------------------------------------------------------

   On a shared host the first seconds of load after an idle spell run
   ~20% slower than the rest, and a pause of a few seconds is enough to
   bring that back (README.md has the measurement).  Before set-up, keep
   [jobs] domains busy generating the workload's trace for [warmup_s]
   seconds, so that set-up and the first timed operation meet a host in
   the same state as the last. *)

let warmup_s = 5.0

let warm_up spec seed =
  let t_end = now () +. warmup_s in
  let spin () =
    while now () < t_end do
      ignore (spec.generate ~scale:spec.scale ~seed:(trace_seed seed 0))
    done
  in
  let others = List.init (jobs - 1) (fun _ -> Domain.spawn spin) in
  spin ();
  List.iter Domain.join others

(* -- the restart arm -----------------------------------------------------

   vocoder-restart only: the cold arm wrote a fresh store; simulate a
   process restart (drop the hot tier, reload the trace from the MXTB
   file, reopen the store) and re-run warm.  The warm result must equal
   the cold one and must have been read from the store. *)

let store_dir spec = Filename.concat work_root (spec.name ^ ".store")

let check_warm ~(cold : outcome) ~(warm : outcome) disk_hits =
  check "warm run equals cold run" (warm.blob = cold.blob) "";
  check "warm run read the store" (disk_hits > 0)
    (Printf.sprintf "disk_hits=%d" disk_hits)

let disk_hits () =
  match Eval.persist_stats () with
  | Some d -> d.Mx_util.Persist_cache.get_hits
  | None -> 0

(* -- trace 0: end-to-end ------------------------------------------------

   Each operation runs in a fresh process of its own ([--op I]), as a
   `conex explore` invocation does.  Explorations run one after another
   in one process do not start from the same state: the heap an earlier
   one grew and the worker domains it started carry over, and in-process
   rounds often read the later operations 25-40% slower than the first,
   so a run's figures would depend on how many operations it fits. *)

type op = {
  wall : float;
  cold_s : float;
  restart_s : float;  (** 0 unless vocoder-restart *)
  rss_mb : float;  (** peak resident memory of the operation's process *)
}

(* child side: one timed operation on trace [i], the cold call plus for
   vocoder-restart the restart arm; returns it with the digest of the
   result's canonical form *)
let e2e_once spec seed i (inp : input) =
  let w = fresh inp.w in
  let raw, cold_s =
    if spec.restart then begin
      let dir = store_dir spec in
      fresh_dir dir;
      timed (fun () ->
          open_store dir;
          let r = call spec w in
          Eval.close_persist ();
          r)
    end
    else timed (fun () -> call spec w)
  in
  let o = of_explore raw in
  Printf.printf
    "result trace=%d front_digest=%s n_estimates=%d n_simulations=%d\n" i
    o.front_digest o.n_estimates o.n_simulations;
  check_pin spec seed i o;
  check_invariants o;
  let restart_s =
    if not spec.restart then 0.0
    else begin
      Eval.clear_cache ();
      let raw, restart_s =
        timed (fun () ->
            let w' = Mx_trace.Trace_io.load ~path:inp.mxtb in
            open_store (store_dir spec);
            call spec w')
      in
      check_warm ~cold:o ~warm:(of_explore raw) (disk_hits ());
      Eval.close_persist ();
      restart_s
    end
  in
  ( { wall = cold_s +. restart_s; cold_s; restart_s; rss_mb = peak_rss_mb () },
    Digest.to_hex (Digest.string o.blob) )

(* Run this executable with [args]: its standard output, and whether it
   exited with 0.  Waits for the child. *)
let run_self args =
  let argv = Array.of_list (Sys.executable_name :: args) in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let out = In_channel.input_all ic in
  (out, Unix.close_process_in ic = Unix.WEXITED 0)

let last_line out =
  match List.rev (String.split_on_char '\n' (String.trim out)) with
  | last :: _ -> last
  | [] -> ""

(* parent side: relay the child's lines, then check its result against
   the first round's for the same trace *)
let run_op spec seed i reference =
  let out, exited_0 =
    run_self
      [ "--workload"; spec.name; "--seed"; string_of_int seed; "--op"; string_of_int i ]
  in
  print_string out;
  if not exited_0 then failwith (Printf.sprintf "operation on trace %d failed" i);
  Scanf.sscanf (last_line out) "op %h %h %h %h %s %B"
    (fun wall cold_s restart_s rss_mb digest ok ->
      check "operation's checks" ok "";
      (match !reference with
      | None -> reference := Some digest
      | Some d -> check "result equals the first round's" (digest = d) "");
      { wall; cold_s; restart_s; rss_mb })

(* Rounds over the suite, each trace once per round, while another
   round is expected to end within [seconds] (at least one).  A round's
   figures are its mean seconds and its mean peak memory per trace, and
   the run reports the median round: a mean over the suite, because the
   traces a seed draws differ in work and in memory, and the median of a
   few traces would jump with the mix.  A round with a failed operation
   has no figure. *)
let end_to_end spec seed seconds (s : setup) =
  let refs = Array.init spec.traces (fun _ -> ref None) in
  let rounds = ref [] in
  let t_start = now () in
  let go_on () =
    match !rounds with
    | [] -> true
    | rs ->
      let elapsed = now () -. t_start in
      elapsed +. (elapsed /. float_of_int (List.length rs)) <= seconds
  in
  while go_on () do
    let ops =
      List.init spec.traces (fun i ->
          operation spec.name (fun () -> run_op spec seed i refs.(i)))
    in
    rounds :=
      (if List.mem None ops then None else Some (List.filter_map Fun.id ops))
      :: !rounds
  done;
  let ok = List.rev (List.filter_map Fun.id !rounds) in
  let mean f ops =
    List.fold_left (fun a op -> a +. f op) 0.0 ops
    /. float_of_int (List.length ops)
  in
  let per_round f = List.map (mean f) ok in
  List.iteri
    (fun r ops ->
      Printf.printf "round %d wall_s per trace: %s\n" r
        (String.concat " " (List.map (fun op -> Printf.sprintf "%.3f" op.wall) ops)))
    ok;
  if spec.restart then
    Printf.printf "cold_s %.3f restart_s %.3f (median round means)\n"
      (median (per_round (fun op -> op.cold_s)))
      (median (per_round (fun op -> op.restart_s)));
  [
    ("wall_s", median (per_round (fun op -> op.wall)), "s");
    ("setup_s", s.setup_s, "s");
    ("peak_rss_mb", median (per_round (fun op -> op.rss_mb)), "MB");
  ]

(* -- trace 1: the traced re-drive --------------------------------------- *)

(* spans recorded from the benchmark's side of each public call, summed
   by name *)
let spans : (string * float) list ref = ref []

let add_span name dt =
  spans :=
    match List.assoc_opt name !spans with
    | Some t -> (name, t +. dt) :: List.remove_assoc name !spans
    | None -> (name, dt) :: !spans

let span name f =
  let v, dt = timed f in
  add_span name dt;
  v

let span_s name = Option.value ~default:0.0 (List.assoc_opt name !spans)

let front_axes = [ Design.cost; Design.latency ]

let archive_of (config : X.config) =
  Pareto.Archive.create ~axes:front_axes ~eps:config.X.archive_eps
    ?capacity:config.X.archive_capacity ()

(* Explore.run from its public pieces.  Every Explore workload runs
   exact Phase II ([sample = None]), so there is no refine pass. *)
let traced_explore ~prefix (config : X.config) w =
  let span n = span (prefix ^ n) in
  let profile = span "trace.profile" (fun () -> Mx_trace.Profile.analyze w) in
  let cands =
    span "apex.select" (fun () -> Apex.select ~config:config.X.apex profile)
  in
  let per_arch =
    match span "explore.phase1" (fun () -> X.phase1 config w cands) with
    | Some p -> p
    | None -> failwith "phase1 interrupted"
  in
  let survivors =
    List.concat_map
      (fun ests -> span "explore.filter" (fun () -> X.local_promising config ests))
      per_arch
  in
  let archive = archive_of config in
  let simulated =
    span "explore.phase2" (fun () ->
        X.evaluate_designs config w ~stage:"phase2"
          ~fidelity:(X.fidelity_of_sample config.X.sample)
          ~archive survivors)
  in
  (* the canonical form is built after the clock stops *)
  ( lazy
      (let estimated = List.concat per_arch in
       outcome ~apex:(arch_labels cands) ~estimated ~simulated
         ~front:(Pareto.Archive.front archive)
         ~n_estimates:(List.length estimated)
         ~n_simulations:(List.length simulated)),
    cands,
    per_arch,
    survivors )

(* hot-tier traffic of [f], as (hits, misses) deltas *)
let hot_traffic f =
  let s0 = Eval.cache_stats () in
  let v = f () in
  let s1 = Eval.cache_stats () in
  ( v,
    s1.Mx_util.Memo_cache.hits - s0.Mx_util.Memo_cache.hits,
    s1.Mx_util.Memo_cache.misses - s0.Mx_util.Memo_cache.misses )

(* repeat [f] until at least [min_s] seconds have passed; returns the
   mean seconds per call *)
let per_call ?(min_s = 0.2) f =
  let n = ref 0 in
  let t0 = now () in
  while !n = 0 || now () -. t0 < min_s do
    ignore (Sys.opaque_identity (f ()));
    incr n
  done;
  (now () -. t0) /. float_of_int !n

(* seconds and minor words of one call *)
let cost f =
  let m0 = Gc.minor_words () in
  let v, dt = timed f in
  (v, dt, Gc.minor_words () -. m0)

let evenly k xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n <= k then xs else List.init k (fun i -> a.(i * n / k))

(* -- jobs arms -------------------------------------------------------------

   task_pool.*_speedup compares Phase I and Phase II at jobs=1 and at
   jobs=2, each level in a fresh process of its own, as `--jobs 1` and
   `--jobs 2` runs are: neither inherits a cache, a grown heap or live
   worker domains from the other.  A level runs the traced pipeline once
   (its result must equal the untraced call's), then times each phase
   [arm_reps] more times, cold and from a fully collected heap, and keeps
   the fastest: a phase of a tenth of a second otherwise reads whatever
   collection work the phase before it left behind. *)

type arm = { phase1_s : float; phase2_s : float; digest : string }

let arm_reps = 3

(* child side ([--jobs-arm J]) *)
let jobs_arm spec seed j =
  let w = spec.generate ~scale:spec.scale ~seed:(trace_seed seed 0) in
  let config = { spec.config with X.jobs = j } in
  cold ();
  let o, cands, _, designs = traced_explore ~prefix:"" config w in
  let o = Lazy.force o in
  let best f =
    List.init arm_reps (fun _ ->
        cold ();
        Gc.full_major ();
        snd (timed f))
    |> List.fold_left Float.min infinity
  in
  let phase1_s = best (fun () -> ignore (X.phase1 config w cands)) in
  let phase2_s =
    best (fun () ->
        ignore
          (X.evaluate_designs config w ~stage:"phase2"
             ~fidelity:(X.fidelity_of_sample config.X.sample)
             designs))
  in
  Printf.printf "arm %h %h %s\n" phase1_s phase2_s
    (Digest.to_hex (Digest.string o.blob))

let run_arm spec seed j =
  let out, exited_0 =
    run_self
      [ "--workload"; spec.name; "--seed"; string_of_int seed; "--jobs-arm"; string_of_int j ]
  in
  if not exited_0 then failwith (Printf.sprintf "jobs=%d arm failed" j);
  Scanf.sscanf (last_line out) "arm %h %h %s" (fun phase1_s phase2_s digest ->
      { phase1_s; phase2_s; digest })

(* A speed-up above nproc means an arm was served from a cache or is
   not measuring the code.  Phase II is embarrassingly parallel and can
   legitimately read more than nproc: every stop-the-world minor
   collection empties one 256k-word minor heap per domain, so at jobs=2
   li's Phase II runs 44 minor collections where jobs=1 runs 79, and
   reads 2.2-2.6x on 2 cores.  The check allows 50% over nproc, which
   still catches the 4.5x a warm arm read. *)
let speedup_tolerance = 0.5

(* The traced run works on trace 0 of the suite. *)
let traced spec seed (setup : setup) =
  let s = List.hd setup.inputs in
  let config = spec.config in
  let accesses = float_of_int (W.access_count s.w) in
  let nproc = Domain.recommended_domain_count () in
  let m = ref [] in
  let put name v unit_ = m := (name, v, unit_) :: !m in
  (* the untraced reference call, then the traced re-drive, both cold *)
  cold ();
  let dir = store_dir spec in
  if spec.restart then fresh_dir dir;
  let w = fresh s.w in
  let (raw, hot_hits, misses), untraced_s =
    timed (fun () ->
        hot_traffic (fun () ->
            if spec.restart then open_store dir;
            let r = call spec w in
            Eval.close_persist ();
            r))
  in
  let ref_o = of_explore raw in
  check_pin spec seed 0 ref_o;
  check_invariants ref_o;
  put "eval.hot_hits" (float_of_int hot_hits) "count";
  put "eval.misses" (float_of_int misses) "count";
  cold ();
  if spec.restart then fresh_dir dir;
  let t0 = now () in
  if spec.restart then span "persist.open" (fun () -> open_store dir);
  (* [selected]: the architectures the layer probes below run on *)
  let traced_o, selected, per_arch, _ =
    traced_explore ~prefix:"" config (fresh s.w)
  in
  let writes =
    match Eval.persist_stats () with
    | Some st -> st.Mx_util.Persist_cache.appended
    | None -> 0
  in
  put "eval.disk_writes" (float_of_int writes) "count";
  if spec.restart then span "persist.close" Eval.close_persist;
  let traced_s = now () -. t0 in
  let traced_o = Lazy.force traced_o in
  check "traced re-drive equals the untraced call" (traced_o.blob = ref_o.blob) "";
  let pipeline_spans =
    [
      "trace.profile"; "apex.select"; "explore.phase1"; "explore.filter";
      "explore.phase2";
    ]
  in
  let phase_names = pipeline_spans @ [ "persist.open"; "persist.close" ] in
  let attributed = List.fold_left (fun a n -> a +. span_s n) 0.0 phase_names in
  Printf.printf "traced %.3f s (untraced %.3f s); phase shares of the traced run:\n"
    traced_s untraced_s;
  List.iter
    (fun n ->
      if span_s n > 0.0 then
        Printf.printf "  %-26s %8.3f s %6.1f%%\n" n (span_s n)
          (100.0 *. span_s n /. traced_s))
    phase_names;
  Printf.printf "  %-26s %8.3f s %6.1f%%\n" "(unattributed)"
    (traced_s -. attributed)
    (100.0 *. (traced_s -. attributed) /. traced_s);
  List.iter (fun n -> put (n ^ "_s") (span_s n) "s") pipeline_spans;
  put "explore.unattributed_s" (traced_s -. attributed) "s";
  put "explore.attributed_share" (attributed /. traced_s) "ratio";
  put "explore.traced_overhead_share" ((traced_s /. untraced_s) -. 1.0) "ratio";
  put "explore.estimates" (float_of_int traced_o.n_estimates) "count";
  put "explore.simulations" (float_of_int traced_o.n_simulations) "count";
  put "explore.filter_ns_per_design"
    (if traced_o.n_estimates = 0 then 0.0
     else span_s "explore.filter" *. 1e9 /. float_of_int traced_o.n_estimates)
    "ns";
  (* the restart arm, traced *)
  if spec.restart then begin
    Eval.clear_cache ();
    let w', load_s = timed (fun () -> Mx_trace.Trace_io.load ~path:s.mxtb) in
    let _, open_s = timed (fun () -> open_store dir) in
    let records =
      match Eval.persist_stats () with
      | Some st -> st.Mx_util.Persist_cache.entries
      | None -> 0
    in
    let t1 = now () in
    let warm, _, _, _ = traced_explore ~prefix:"warm." config w' in
    let warm_s = now () -. t1 in
    let warm = Lazy.force warm in
    check_warm ~cold:ref_o ~warm (disk_hits ());
    put "eval.disk_hits" (float_of_int (disk_hits ())) "count";
    Eval.close_persist ();
    put "restart.load_s" load_s "s";
    put "persist.open_s" open_s "s";
    put "persist.close_s" (span_s "persist.close") "s";
    put "persist.records" (float_of_int records) "count";
    put "persist.store_mb" (float_of_int (dir_bytes dir) /. 1048576.0) "MB";
    put "restart.warm_s" warm_s "s";
    put "restart.warm_apex_s" (span_s "warm.apex.select") "s";
    put "restart.warm_filter_s" (span_s "warm.explore.filter") "s";
    Printf.printf "restart: load %.3f s, open %.3f s, warm run %.3f s (apex %.3f, filter %.3f)\n"
      load_s open_s warm_s (span_s "warm.apex.select") (span_s "warm.explore.filter")
  end
  else
    List.iter
      (fun (n, u) -> put n 0.0 u)
      [
        ("eval.disk_hits", "count"); ("restart.load_s", "s");
        ("persist.open_s", "s"); ("persist.close_s", "s");
        ("persist.records", "count"); ("persist.store_mb", "MB");
        ("restart.warm_s", "s"); ("restart.warm_apex_s", "s");
        ("restart.warm_filter_s", "s");
      ];
  rm_rf dir;
  (* -- layer probes on this workload's own data -- *)
  put "trace.generate_s" setup.generate_s "s";
  if not spec.restart then Mx_trace.Trace_io.save ~format:Binary s.w ~path:s.mxtb;
  let decode_s = per_call (fun () -> Mx_trace.Trace_io.load ~path:s.mxtb) in
  check "MXTB round trip"
    (W.fingerprint (Mx_trace.Trace_io.load ~path:s.mxtb) = W.fingerprint s.w)
    "";
  put "trace.decode_ns_per_access" (decode_s *. 1e9 /. accesses) "ns";
  let profile = Mx_trace.Profile.analyze s.w in
  let n_cands = List.length (Apex.candidates config.X.apex profile) in
  put "apex.candidates" (float_of_int n_cands) "count";
  put "apex.ns_per_candidate_access"
    (span_s "apex.select" *. 1e9 /. (float_of_int n_cands *. accesses))
    "ns";
  (* Mem_sim: one pass per APEX-selected architecture *)
  let _, ms_s, ms_words =
    cost (fun () ->
        List.iter
          (fun (c : Apex.candidate) ->
            let sim = Mx_mem.Mem_sim.create c.Apex.arch ~regions:s.w.W.regions in
            ignore (Mx_mem.Mem_sim.run sim s.w.W.trace))
          selected)
  in
  let routed = float_of_int (List.length selected) *. accesses in
  put "mem_sim.ns_per_access" (ms_s *. 1e9 /. routed) "ns";
  put "mem_sim.minor_words_per_access" (ms_words /. routed) "words";
  (* Connect: BRG + clustering-level enumeration per selected arch *)
  let conns, enum_s =
    timed (fun () ->
        List.concat_map
          (fun (c : Apex.candidate) ->
            let brg = Mx_connect.Brg.build c.Apex.arch c.Apex.profile in
            Mx_connect.Assign.enumerate_levels
              ~max_designs_per_level:config.X.max_designs_per_level
              ~onchip:config.X.onchip ~offchip:config.X.offchip
              brg.Mx_connect.Brg.channels
            |> List.map (fun conn -> (c, conn)))
          selected)
  in
  put "connect.enumerate_s" enum_s "s";
  put "connect.assignments" (float_of_int (List.length conns)) "count";
  (* Estimator, uncached *)
  let est_pairs = evenly 2048 conns in
  let est_s =
    per_call (fun () ->
        List.iter
          (fun ((c : Apex.candidate), conn) ->
            ignore
              (Mx_sim.Estimator.estimate ~workload:s.w ~arch:c.Apex.arch
                 ~profile:c.Apex.profile ~conn))
          est_pairs)
  in
  put "estimator.ns_per_design"
    (est_s *. 1e9 /. float_of_int (max 1 (List.length est_pairs)))
    "ns";
  (* Cycle_sim, uncached: exact and 1/9-sampled on the same designs *)
  let sim_designs = evenly 6 traced_o.simulated in
  let sim_all sample =
    List.iter
      (fun (d : Design.t) ->
        ignore
          (Mx_sim.Cycle_sim.run ?sample ~workload:s.w ~arch:d.Design.mem
             ~conn:d.Design.conn ()))
      sim_designs
  in
  let _, ex_s, ex_words = cost (fun () -> sim_all None) in
  let _, sa_s, sa_words =
    cost (fun () -> sim_all (Some Mx_sim.Cycle_sim.default_sample))
  in
  let simulated_accesses = float_of_int (List.length sim_designs) *. accesses in
  put "cycle_sim.exact_ns_per_access" (ex_s *. 1e9 /. simulated_accesses) "ns";
  put "cycle_sim.sampled_ns_per_access" (sa_s *. 1e9 /. simulated_accesses) "ns";
  put "cycle_sim.sampled_speedup" (ex_s /. sa_s) "ratio";
  put "cycle_sim.exact_minor_words_per_access" (ex_words /. simulated_accesses)
    "words";
  put "cycle_sim.sampled_minor_words_per_access" (sa_words /. simulated_accesses)
    "words";
  (* Pareto: the 3-objective front over one architecture's estimates;
     the 2-objective archive over the simulated designs *)
  let front_pts =
    match per_arch with
    | first :: _ -> first
    | [] -> traced_o.simulated
  in
  let axes = [ Design.cost; Design.latency; Design.energy ] in
  let front_s = per_call (fun () -> Pareto.front ~axes front_pts) in
  put "pareto.front_ns_per_point"
    (front_s *. 1e9 /. float_of_int (max 1 (List.length front_pts)))
    "ns";
  let archive_s =
    per_call (fun () -> Pareto.Archive.of_list ~axes:front_axes traced_o.simulated)
  in
  put "pareto.archive_ns_per_insert"
    (archive_s *. 1e9 /. float_of_int (max 1 traced_o.n_simulations))
    "ns";
  (* Task_pool: each jobs level in a fresh process of its own.  The two
     levels alternate twice, so that a slow spell of the host does not
     fall on one level only, and each level keeps its faster times. *)
  let arms = List.map (fun j -> (j, run_arm spec seed j)) [ 1; jobs; 1; jobs ] in
  check "jobs=1 and jobs=2 arms equal the untraced call"
    (List.for_all
       (fun (_, a) -> a.digest = Digest.to_hex (Digest.string ref_o.blob))
       arms)
    "";
  let level j =
    let at_j = List.filter_map (fun (k, a) -> if k = j then Some a else None) arms in
    let fastest f = List.fold_left (fun t a -> Float.min t (f a)) infinity at_j in
    (fastest (fun a -> a.phase1_s), fastest (fun a -> a.phase2_s))
  in
  let (p1_at_1, p2_at_1), (p1_at_j, p2_at_j) = (level 1, level jobs) in
  let speedup name t1 t2 =
    let sp = t1 /. t2 in
    check
      (Printf.sprintf "%s speedup <= nproc" name)
      (sp <= float_of_int nproc *. (1.0 +. speedup_tolerance))
      (Printf.sprintf "%.2fx on %d cores" sp nproc);
    put ("task_pool." ^ name ^ "_speedup") sp "ratio"
  in
  speedup "phase1" p1_at_1 p1_at_j;
  speedup "phase2" p2_at_1 p2_at_j;
  cold ();
  List.rev !m

(* -- main --------------------------------------------------------------- *)

let json_metric (name, v, unit_) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
    (if not (Float.is_finite v) then "null" (* no successful sample; [correct] is false then *)
     else if Float.is_integer v && Float.abs v < 1e15 then
       Printf.sprintf "%.1f" v
     else Printf.sprintf "%.17g" v)
    unit_

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref 10.0
  and trace = ref 0 and flambda = ref "unknown" and jobs_arm_level = ref 0
  and op_index = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 7)");
      ("--seconds", Arg.Set_float seconds, "S measuring time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced run (1)");
      ("--flambda", Arg.Set_string flambda, "B reported in the environment");
      ( "--op",
        Arg.Set_int op_index,
        "I internal: one end-to-end operation on trace I, for --trace 0" );
      ( "--jobs-arm",
        Arg.Set_int jobs_arm_level,
        "J internal: one traced pipeline at jobs=J, for the traced run" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "conex_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let spec =
    match List.find_opt (fun s -> s.name = !workload) specs with
    | Some s -> s
    | None ->
      prerr_endline
        ("unknown workload " ^ !workload ^ "; one of: "
        ^ String.concat ", " (List.map (fun s -> s.name) specs));
      exit 2
  in
  Mx_util.Metrics.set_enabled Mx_util.Metrics.global false;
  if !jobs_arm_level > 0 then begin
    jobs_arm spec !seed !jobs_arm_level;
    exit 0
  end;
  if !op_index >= 0 then begin
    let i = !op_index in
    let w = spec.generate ~scale:spec.scale ~seed:(trace_seed !seed i) in
    let op, digest = e2e_once spec !seed i { w; mxtb = mxtb_path spec i } in
    Printf.printf "op %h %h %h %h %s %B\n" op.wall op.cold_s op.restart_s
      op.rss_mb digest !checks_ok;
    exit 0
  end;
  warm_up spec !seed;
  let s = setup spec !seed in
  Printf.printf
    "env cores=%d ocaml=%s flambda=%s jobs=%d seed=%d workload=%s kernel=%s \
     scale=%d traces=%d accesses=%d caches=cold trace=%d\n%!"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !flambda jobs !seed spec.name spec.kernel spec.scale
    spec.traces
    (W.access_count (List.hd s.inputs).w) !trace;
  let metrics =
    if !trace = 0 then end_to_end spec !seed !seconds s
    else begin
      (* a failed check still reports the metrics measured *)
      let m = ref [] in
      ignore (operation spec.name (fun () -> m := traced spec !seed s));
      !m
    end
  in
  rm_rf work_root;
  List.iter (fun (n, v, u) -> Printf.printf "%-40s %16.6f %s\n" n v u) metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!checks_ok && !failed = 0)
    !attempted !failed
    (String.concat ", " (List.map json_metric metrics))
