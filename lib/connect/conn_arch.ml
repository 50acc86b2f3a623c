type binding = { cluster : Cluster.t; component : Component.t }

type t = { bindings : binding list; cost_gates : int }

let feasible (cl : Cluster.t) (c : Component.t) =
  List.length cl.Cluster.channels <= c.Component.max_channels
  && cl.Cluster.offchip = c.Component.offchip

let make pairs =
  let bindings =
    List.map
      (fun (cluster, component) ->
        if not (feasible cluster component) then
          invalid_arg
            (Printf.sprintf "Conn_arch.make: %s cannot carry %s"
               component.Component.name (Cluster.describe cluster));
        { cluster; component })
      pairs
  in
  let cost_gates =
    List.fold_left
      (fun acc b ->
        acc
        + Conn_cost.cost_gates b.component
            ~channels:(List.length b.cluster.Cluster.channels))
      0 bindings
  in
  { bindings; cost_gates }

type leg = { comp : Component.t; index : int; shared : bool }

let route t src dst =
  let probe = { Channel.src; dst; bandwidth = 0.0; txn_bytes = 0.0 } in
  let rec go i = function
    | [] -> None
    | b :: rest ->
      let chans = b.cluster.Cluster.channels in
      if List.exists (Channel.same_endpoints probe) chans then
        Some { comp = b.component; index = i; shared = List.length chans > 1 }
      else go (i + 1) rest
  in
  go 0 t.bindings

(* Canonical order-insensitive fingerprint.  A channel is identified by
   its endpoint pair (direction-insensitive, like [Channel.same_endpoints]);
   channels within a cluster and bindings within the architecture are
   sorted, so two architectures assembled in different orders — or from
   differently-ordered clusters — fingerprint identically iff they bind
   the same channel sets to the same component types. *)
let fingerprint t =
  let channel (ch : Channel.t) =
    let a = Channel.node_to_string ch.Channel.src
    and b = Channel.node_to_string ch.Channel.dst in
    if String.compare a b <= 0 then a ^ "-" ^ b else b ^ "-" ^ a
  in
  let binding b =
    let chans =
      List.sort String.compare (List.map channel b.cluster.Cluster.channels)
    in
    b.component.Component.name ^ "{" ^ String.concat "," chans ^ "}"
  in
  "conn:"
  ^ String.concat "+" (List.sort String.compare (List.map binding t.bindings))

let describe t =
  t.bindings
  |> List.map (fun b ->
         Printf.sprintf "%s%s" b.component.Component.name
           (Cluster.describe b.cluster))
  |> String.concat " + "

let pp fmt t =
  Format.fprintf fmt "%s (%d gates)" (describe t) t.cost_gates
