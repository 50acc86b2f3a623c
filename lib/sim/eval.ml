module Workload = Mx_trace.Workload
module Trace = Mx_trace.Trace
module Mem_arch = Mx_mem.Mem_arch
module Conn_arch = Mx_connect.Conn_arch
module Memo_cache = Mx_util.Memo_cache
module Persist_cache = Mx_util.Persist_cache

type fidelity = Estimate | Sampled of int * int | Exact

let fidelity_tag = function
  | Estimate -> "e"
  | Sampled (on, off) -> Printf.sprintf "s:%d/%d" on off
  | Exact -> "x"

let default_cache_capacity = 65536

let make_cache capacity =
  Memo_cache.create ~metrics_prefix:"eval.cache" ~capacity ()

let cache : Sim_result.t Memo_cache.t ref = ref (make_cache default_cache_capacity)

let set_cache_capacity capacity = cache := make_cache (max 0 capacity)

let cache_capacity () = Memo_cache.capacity !cache
let cache_stats () = Memo_cache.stats !cache

let clear_cache () = Memo_cache.clear !cache

(* Workload fingerprints are O(trace length); exploration evaluates the
   same workload thousands of times, so memoise the last one by physical
   identity (the length re-check guards against in-place Emitter
   appends).  A lock-free single slot is enough: racing domains all
   write the same value. *)
let wl_memo : (Workload.t * int * string) option Atomic.t = Atomic.make None

let workload_fingerprint (w : Workload.t) =
  let len = Trace.length w.Workload.trace in
  match Atomic.get wl_memo with
  | Some (w', len', fp) when w' == w && len' = len -> fp
  | _ ->
    let fp = Workload.fingerprint w in
    Atomic.set wl_memo (Some (w, len, fp));
    fp

let key ~base fidelity = base ^ "|" ^ fidelity_tag fidelity

(* The persistent (disk) tier.  Bump the revision whenever a change to
   the estimator, the cycle simulator or the fingerprint scheme can
   alter any evaluation result: segments written under the old revision
   are then ignored on open, so a stale store silently self-invalidates
   instead of serving yesterday's numbers. *)
let model_revision = "conex-eval-1"

let persist : Persist_cache.t option ref = ref None

let close_persist () =
  match !persist with
  | None -> ()
  | Some t ->
    persist := None;
    Persist_cache.close t

let open_persist ~dir =
  close_persist ();
  match
    Persist_cache.open_dir ~metrics_prefix:"eval.cache.disk"
      ~revision:model_revision ~dir ()
  with
  | Ok t ->
    persist := Some t;
    Ok ()
  | Error e -> Error e

let sync_persist () = Option.iter Persist_cache.sync !persist
let persist_stats () = Option.map Persist_cache.stats !persist

let persist_get k =
  match !persist with
  | None -> None
  | Some t -> (
    match Persist_cache.get t ~key:k with
    | None -> None
    | Some wire -> Sim_result.of_wire wire (* unparseable entry = miss *))

let persist_put k r =
  match !persist with
  | None -> ()
  | Some t -> Persist_cache.put t ~key:k (Sim_result.to_wire r)

type provenance = Computed | Cache_hit | Disk_hit | Promoted

let provenance_tag = function
  | Computed -> "computed"
  | Cache_hit -> "hit"
  | Disk_hit -> "hit_disk"
  | Promoted -> "promoted"

(* hot tier -> disk tier -> compute, inside the memo closure so the
   single-flight guarantee covers the disk read and the write-back:
   concurrent requests for one key do one disk probe and at most one
   evaluation, and every waiter sees the same value. *)
let find_via_tiers c ~key:k f =
  let disk = ref false in
  let r, mem_hit =
    Memo_cache.find_or_compute_prov c ~key:k (fun () ->
        match persist_get k with
        | Some r ->
          disk := true;
          r
        | None ->
          let r = f () in
          persist_put k r;
          r)
  in
  let prov = if mem_hit then Cache_hit else if !disk then Disk_hit else Computed in
  (r, prov)

(* Exact-serves-Sampled promotion through the disk tier: when the hot
   tier has no Exact entry, probe the store before settling for a
   sampled simulation, and re-home a disk hit under its Exact key so
   later peeks promote from memory. *)
let promote_from_disk c ~exact_key =
  match persist_get exact_key with
  | None -> None
  | Some r ->
    let r, _ = Memo_cache.find_or_compute_prov c ~key:exact_key (fun () -> r) in
    Some r

let eval_prov ~fidelity ~workload ~arch ?profile ~conn () =
  let c = !cache in
  let base =
    workload_fingerprint workload
    ^ "|" ^ Mem_arch.fingerprint arch
    ^ "|" ^ Conn_arch.fingerprint conn
  in
  match fidelity with
  | Estimate ->
    let profile =
      match profile with
      | Some p -> p
      | None -> invalid_arg "Eval.eval: Estimate fidelity requires ~profile"
    in
    let k = key ~base Estimate in
    find_via_tiers c ~key:k (fun () ->
        Estimator.estimate ~workload ~arch ~profile ~conn)
  | Exact ->
    let k = key ~base Exact in
    find_via_tiers c ~key:k (fun () -> Cycle_sim.run ~workload ~arch ~conn ())
  | Sampled (on, off) -> (
    (* an exact result for the same design is strictly higher fidelity:
       serve it instead of re-simulating with sampling *)
    let exact_key = key ~base Exact in
    match Memo_cache.peek c ~key:exact_key with
    | Some r -> (r, Promoted)
    | None -> (
      match promote_from_disk c ~exact_key with
      | Some r -> (r, Promoted)
      | None ->
        let k = key ~base (Sampled (on, off)) in
        find_via_tiers c ~key:k (fun () ->
            Cycle_sim.run ~sample:(on, off) ~workload ~arch ~conn ())))

let eval ~fidelity ~workload ~arch ?profile ~conn () =
  fst (eval_prov ~fidelity ~workload ~arch ?profile ~conn ())
