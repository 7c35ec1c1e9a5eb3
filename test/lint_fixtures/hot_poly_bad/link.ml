(* The per-packet transmit loop: Link.send is a hot entry point. *)
let send t h = Chain.stage1 t h
