(* Phi_net.Packet.Fifo is the flat hot-path container. *)
let pending = Packet.Fifo.create ()
