module Mem_sim = Mx_mem.Mem_sim
module Mem_arch = Mx_mem.Mem_arch
module Params = Mx_mem.Params
module Channel = Mx_connect.Channel
module Conn_arch = Mx_connect.Conn_arch

type leg = (Conn_arch.leg, string) result
type path = { cpu : leg; l2 : leg option; dram : leg }

let leg conn src dst =
  match Conn_arch.route conn src dst with
  | Some l -> Ok l
  | None ->
    Error (Channel.node_to_string src ^ "<->" ^ Channel.node_to_string dst)

(* With an L2 the cache's off-chip traffic flows cache -> L2 -> DRAM; a
   direct DRAM access rides its CPU channel off chip. *)
let path conn ~has_l2 sv =
  let node = Channel.of_serving sv in
  let via_l2 = has_l2 && sv = Mem_sim.By_cache in
  let cpu = leg conn Channel.Cpu node in
  {
    cpu;
    l2 = (if via_l2 then Some (leg conn Channel.Cache Channel.L2) else None);
    dram =
      (if node = Channel.Dram then cpu
       else leg conn (if via_l2 then Channel.L2 else node) Channel.Dram);
  }

let require who = function
  | Ok l -> l
  | Error ends ->
    invalid_arg
      (Printf.sprintf "%s: connectivity does not implement the %s channel" who
         ends)

(* average DRAM core latency assuming a mixed row-hit/miss stream *)
let dram_core_latency () =
  let d = Mx_mem.Module_lib.default_dram in
  float_of_int d.Params.d_cas
  +. (0.5 *. float_of_int (d.Params.d_rcd + d.Params.d_rp))

(* critical-word-first: the CPU resumes after the first 8 bytes *)
let cwf_bytes = 8

let module_latency (arch : Mem_arch.t) = function
  | Mem_sim.By_cache -> (
    match arch.Mem_arch.cache with Some c -> c.Params.c_latency | None -> 0)
  | Mem_sim.By_sram -> (
    match arch.Mem_arch.sram with Some s -> s.Params.s_latency | None -> 1)
  | Mem_sim.By_sbuf -> (
    match arch.Mem_arch.sbuf with Some s -> s.Params.sb_latency | None -> 1)
  | Mem_sim.By_lldma -> (
    match arch.Mem_arch.lldma with Some l -> l.Params.ll_latency | None -> 1)
  | Mem_sim.By_dram_direct -> 0

let module_energy (arch : Mem_arch.t) serving ~write =
  match serving with
  | Mem_sim.By_cache -> (
    match arch.Mem_arch.cache with
    | Some c -> Mx_mem.Energy_model.cache_access c ~write
    | None -> 0.0)
  | Mem_sim.By_sram -> (
    match arch.Mem_arch.sram with
    | Some s -> Mx_mem.Energy_model.sram_access ~size:s.Params.s_size
    | None -> 0.0)
  | Mem_sim.By_sbuf -> (
    match arch.Mem_arch.sbuf with
    | Some s -> Mx_mem.Energy_model.stream_buffer_access s
    | None -> 0.0)
  | Mem_sim.By_lldma -> (
    match arch.Mem_arch.lldma with
    | Some l -> Mx_mem.Energy_model.lldma_access l
    | None -> 0.0)
  | Mem_sim.By_dram_direct -> 0.0

let critical_bytes (arch : Mem_arch.t) serving ~lldma_bytes ~fallback =
  match serving with
  | Mem_sim.By_cache -> (
    match arch.Mem_arch.cache with
    | Some c -> min c.Params.c_line cwf_bytes
    | None -> fallback)
  | Mem_sim.By_sbuf -> (
    match arch.Mem_arch.sbuf with
    | Some s -> min s.Params.sb_line cwf_bytes
    | None -> fallback)
  | Mem_sim.By_lldma -> min lldma_bytes cwf_bytes
  | Mem_sim.By_dram_direct -> fallback
  | Mem_sim.By_sram -> 0
