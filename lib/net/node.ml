module Int_table = Phi_util.Int_table

(* Routes and flow handlers are int-keyed tables rather than generic
   [Hashtbl]s: [receive] probes one of them for every packet, and the
   generic table would hash and compare each key through the runtime.
   Routes stay a table, not an array indexed by node id: a dense array
   per node costs nodes^2 memory on large topologies. *)
type t = {
  id : int;
  pool : Packet.pool;
  routes : Link.t Int_table.t;
  mutable default_route : Link.t option;
  flows : (Packet.handle -> unit) Int_table.t;
  mutable unroutable_drops : int;
  mutable unclaimed_deliveries : int;
}

let create _engine pool ~id =
  {
    id;
    pool;
    routes = Int_table.create 16;
    default_route = None;
    flows = Int_table.create 16;
    unroutable_drops = 0;
    unclaimed_deliveries = 0;
  }

let id t = t.id
let pool t = t.pool

let add_route t ~dst link = Int_table.replace t.routes dst link

let set_default_route t link = t.default_route <- Some link

let bind_flow t ~flow handler = Int_table.replace t.flows flow handler

let unbind_flow t ~flow = Int_table.remove t.flows flow

(* Lookups use [Int_table.find] + exception matching rather than
   [find_opt]: this is the per-packet path and the [Some] box would be
   one allocation per forwarded/delivered packet.  [Not_found] here is a
   preallocated constant, so the miss path is allocation-free too. *)
let receive t pkt =
  let dst = Packet.dst t.pool pkt in
  if dst = t.id then begin
    (match Int_table.find t.flows (Packet.flow t.pool pkt) with
    | handler -> handler pkt
    | exception Not_found -> t.unclaimed_deliveries <- t.unclaimed_deliveries + 1);
    (* Local delivery ends the packet's life: handlers read fields out
       and must not retain the handle. *)
    Packet.release t.pool pkt
  end
  else
    match Int_table.find t.routes dst with
    | link -> Link.send link pkt
    | exception Not_found -> (
      match t.default_route with
      | Some link -> Link.send link pkt
      | None ->
        t.unroutable_drops <- t.unroutable_drops + 1;
        Packet.release t.pool pkt;
        invalid_arg (Printf.sprintf "Node %d: no route for destination %d" t.id dst))

let unroutable_drops t = t.unroutable_drops
let unclaimed_deliveries t = t.unclaimed_deliveries
