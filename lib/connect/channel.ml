type node = Cpu | Cache | L2 | Sram | Sbuf | Lldma | Dram

type t = { src : node; dst : node; bandwidth : float; txn_bytes : float }

let node_to_string = function
  | Cpu -> "CPU"
  | Cache -> "cache"
  | L2 -> "L2"
  | Sram -> "SRAM"
  | Sbuf -> "sbuf"
  | Lldma -> "lldma"
  | Dram -> "DRAM"

let of_serving = function
  | Mx_mem.Mem_sim.By_cache -> Cache
  | Mx_mem.Mem_sim.By_sram -> Sram
  | Mx_mem.Mem_sim.By_sbuf -> Sbuf
  | Mx_mem.Mem_sim.By_lldma -> Lldma
  | Mx_mem.Mem_sim.By_dram_direct -> Dram

let endpoints_to_string c =
  Printf.sprintf "%s<->%s" (node_to_string c.src) (node_to_string c.dst)

let crosses_chip c = c.src = Dram || c.dst = Dram

let same_endpoints a b =
  (a.src = b.src && a.dst = b.dst) || (a.src = b.dst && a.dst = b.src)

let pp fmt c =
  Format.fprintf fmt "%s (%.4f B/slot, %.1f B/txn)" (endpoints_to_string c)
    c.bandwidth c.txn_bytes
