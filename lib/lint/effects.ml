(* hot-alloc: the allocation-effect lattice and its propagation (and
   hot-poly, which reuses its reachability; see the end of the file).

   Each function's own effect is the set of allocation kinds appearing
   (non-cold) in its body; its summary effect is the join of its own
   and its resolvable callees' — a fixpoint over the call graph.  The
   violation pass walks every function reachable from the hot entry
   points through non-cold edges and reports each non-cold allocation
   site, carrying the call chain so the report explains *why* the site
   is hot.  This is the static complement of the runtime
   words-per-packet gate: the gate samples the packets a bench run
   happens to execute; this pass quantifies over every path the call
   graph can prove. *)

(* The steady-state hot paths: the engine event loop, the link/port
   pipeline, local packet delivery, and the sender/receiver per-packet
   handlers.  Setup ([create], [bind], topology builders) is
   deliberately absent — allocation there is amortized across a run. *)
let default_entries =
  [
    "Engine.step"; "Engine.run";
    "Link.send"; "Link.start_service"; "Link.on_tx_done"; "Link.on_deliver";
    "Node.receive";
    "Sender.on_ack"; "Sender.on_packet";
    "Receiver.handle"; "Receiver.send_ack";
  ]

module Kinds = Set.Make (struct
  type t = Ast_scan.alloc_kind

  let compare = Stdlib.compare (* phi-lint: allow poly-compare *)
end)

let own_effect (f : Ast_scan.func) =
  List.fold_left
    (fun acc (a : Ast_scan.alloc) -> if a.a_cold then acc else Kinds.add a.a_kind acc)
    Kinds.empty f.f_allocs

(* Per-function summary effects: own ∪ callees', to a fixpoint.  The
   graph is small (hundreds of nodes), so a simple iterate-until-stable
   pass is plenty. *)
let summaries graph =
  let fs = Callgraph.funcs graph in
  let eff : (string, Kinds.t) Hashtbl.t = Hashtbl.create 256 in
  List.iter (fun (f : Ast_scan.func) -> Hashtbl.replace eff f.f_id (own_effect f)) fs;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Ast_scan.func) ->
        if not f.f_cold then begin
          let caller_module = Callgraph.caller_module_of f in
          let cur =
            match Hashtbl.find_opt eff f.f_id with Some k -> k | None -> Kinds.empty
          in
          let next =
            List.fold_left
              (fun acc (c : Ast_scan.call) ->
                if c.c_cold then acc
                else
                  List.fold_left
                    (fun acc (callee : Ast_scan.func) ->
                      if callee.f_cold then acc
                      else
                        Kinds.union acc
                          (match Hashtbl.find_opt eff callee.f_id with
                          | Some k -> k
                          | None -> Kinds.empty))
                    acc
                    (Callgraph.resolve graph ~caller_module c.c_path))
              cur f.f_calls
          in
          if not (Kinds.equal next cur) then begin
            Hashtbl.replace eff f.f_id next;
            changed := true
          end
        end)
      fs
  done;
  eff

let effect_of graph name =
  let eff = summaries graph in
  match Callgraph.find graph name with
  | [] -> []
  | f :: _ ->
    Kinds.elements
      (match Hashtbl.find_opt eff f.Ast_scan.f_id with Some k -> k | None -> Kinds.empty)

(* Render a call chain compactly: entry, an ellipsis when deep, and the
   last couple of hops — enough to locate the path without drowning the
   diagnostic. *)
let render_chain chain =
  match chain with
  | [] -> ""
  | [ only ] -> only
  | _ ->
    let n = List.length chain in
    if n <= 4 then String.concat " -> " chain
    else
      let arr = Array.of_list chain in
      Printf.sprintf "%s -> ... -> %s -> %s" arr.(0) arr.(n - 2) arr.(n - 1)

type finding = { file : string; line : int; message : string }

let violations ?(entries = default_entries) graph =
  let roots = List.concat_map (Callgraph.find graph) entries in
  let paths = Callgraph.reach graph ~roots ~include_cold:false in
  let out = ref [] in
  List.iter
    (fun (f : Ast_scan.func) ->
      match Hashtbl.find_opt paths f.f_id with
      | None -> ()
      | Some chain ->
        List.iter
          (fun (a : Ast_scan.alloc) ->
            if not a.a_cold then
              out :=
                {
                  file = f.f_file;
                  line = a.a_line;
                  message =
                    Printf.sprintf "%s (%s) in %s, hot via %s"
                      (Ast_scan.kind_to_string a.a_kind)
                      a.a_what f.f_id (render_chain chain);
                }
                :: !out)
          f.f_allocs)
    (Callgraph.funcs graph);
  List.rev !out

(* {2 hot-poly}

   Without flambda, [min]/[max]/[compare] are never specialised: even on
   ints they call the runtime's generic comparison.  A generic
   [Hashtbl] operation hashes its key with [caml_hash] and compares keys
   with [compare_val].  On a path that runs per packet, both cost more
   than the work around them; an int-keyed [Hashtbl.Make] instance and
   explicit int comparisons do not. *)

let poly_callee path =
  let starts prefix =
    String.length path >= String.length prefix
    && String.sub path 0 (String.length prefix) = prefix
  in
  match path with
  | "min" | "max" | "compare" | "Stdlib.min" | "Stdlib.max" | "Stdlib.compare" -> true
  | _ -> starts "Hashtbl." || starts "Stdlib.Hashtbl."

let poly_violations ?(entries = default_entries) graph =
  let roots = List.concat_map (Callgraph.find graph) entries in
  let paths = Callgraph.reach graph ~roots ~include_cold:false in
  let out = ref [] in
  List.iter
    (fun (f : Ast_scan.func) ->
      match Hashtbl.find_opt paths f.f_id with
      | None -> ()
      | Some chain ->
        let caller_module = Callgraph.caller_module_of f in
        List.iter
          (fun (c : Ast_scan.call) ->
            (* A bare [min] that resolves to a project function is that
               function, not the stdlib one. *)
            if
              (not c.c_cold)
              && poly_callee c.c_path
              && Callgraph.resolve graph ~caller_module c.c_path = []
            then
              out :=
                {
                  file = f.f_file;
                  line = c.c_line;
                  message =
                    Printf.sprintf "polymorphic call (%s) in %s, hot via %s" c.c_path f.f_id
                      (render_chain chain);
                }
                :: !out)
          f.f_calls)
    (Callgraph.funcs graph);
  List.rev !out
