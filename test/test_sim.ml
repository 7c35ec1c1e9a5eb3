(* Tests for phi_sim: the 4-ary heap and the discrete-event engine with
   its recycled event cells. *)

module Heap = Phi_sim.Heap
module Engine = Phi_sim.Engine
module Invariant = Phi_sim.Invariant

(* Strict-mode raise behavior only holds while the sanitizer is
   disarmed; with PHI_SANITIZE=1 anomalies are recorded instead. *)
let with_sanitizer_disarmed f =
  let prev = Invariant.enabled () in
  Invariant.set_enabled false;
  Fun.protect ~finally:(fun () -> Invariant.set_enabled prev) f

(* {2 Heap} *)

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check bool) "is_empty" true (Heap.is_empty h);
  Alcotest.(check int) "size" 0 (Heap.size h);
  Alcotest.(check bool) "pop none" true (Heap.pop h = None);
  Alcotest.(check bool) "peek none" true (Heap.peek h = None)

let test_heap_orders_by_priority () =
  let h = Heap.create () in
  List.iteri (fun i p -> Heap.push h ~priority:p ~seq:i p) [ 3.; 1.; 2.; 0.5; 5. ];
  let order = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, _, v) ->
      order := v :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 0.))) "ascending" [ 0.5; 1.; 2.; 3.; 5. ] (List.rev !order)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h ~priority:1. ~seq:i i
  done;
  for i = 0 to 9 do
    match Heap.pop h with
    | Some (_, seq, v) ->
      Alcotest.(check int) "fifo order" i seq;
      Alcotest.(check int) "payload" i v
    | None -> Alcotest.fail "heap exhausted early"
  done

let test_heap_grows () =
  let h = Heap.create () in
  for i = 999 downto 0 do
    Heap.push h ~priority:(float_of_int i) ~seq:i i
  done;
  Alcotest.(check int) "size" 1000 (Heap.size h);
  (match Heap.peek h with
  | Some (p, _, _) -> Alcotest.(check (float 0.)) "min on top" 0. p
  | None -> Alcotest.fail "empty");
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

(* [Float.compare] is a total order with nan below every other float, so
   a nan priority must sort first deterministically rather than poison
   the sift comparisons (every [<] against nan is false, which under the
   old polymorphic-style comparison could strand elements). *)
let test_heap_nan_total_order () =
  let h = Heap.create () in
  Heap.push h ~priority:1. ~seq:0 "one";
  Heap.push h ~priority:Float.nan ~seq:1 "nan";
  Heap.push h ~priority:2. ~seq:2 "two";
  (match Heap.pop h with
  | Some (p, _, v) ->
    Alcotest.(check bool) "nan first" true (Float.is_nan p);
    Alcotest.(check string) "nan payload" "nan" v
  | None -> Alcotest.fail "empty");
  let rest =
    List.init 2 (fun _ ->
        match Heap.pop h with Some (_, _, v) -> v | None -> Alcotest.fail "short")
  in
  Alcotest.(check (list string)) "rest in order" [ "one"; "two" ] rest;
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:300
    QCheck.(list (float_bound_exclusive 1000.))
    (fun priorities ->
      let h = Heap.create () in
      List.iteri (fun i p -> Heap.push h ~priority:p ~seq:i ()) priorities;
      let rec drain last =
        match Heap.pop h with
        | None -> true
        | Some (p, _, ()) -> if p < last then false else drain p
      in
      drain neg_infinity)

(* The SoA 4-ary heap against a sorted-list reference model: 10k mixed
   push/pop operations with tie-heavy priorities (8 distinct values, so
   the FIFO tie-break is exercised constantly), then a full drain.
   Every pop must match the model exactly — priority, seq and payload. *)
let prop_heap_matches_reference =
  QCheck.Test.make ~name:"heap matches sorted-list reference over 10k ops" ~count:5
    QCheck.(int_bound 0xFFFFFF)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let h = Heap.create () in
      (* Reference: a list kept sorted by (priority, seq) ascending. *)
      let model = ref [] in
      let insert p s v =
        let rec go = function
          | [] -> [ (p, s, v) ]
          | ((p', s', _) as hd) :: tl ->
            let c = Float.compare p p' in
            if c < 0 || (c = 0 && s < s') then (p, s, v) :: hd :: tl else hd :: go tl
        in
        model := go !model
      in
      let seq = ref 0 in
      let ok = ref true in
      let check_pop () =
        match (Heap.pop h, !model) with
        | Some (p, s, v), (p', s', v') :: tl ->
          model := tl;
          if not (Float.compare p p' = 0 && s = s' && v = v') then ok := false
        | None, [] -> ()
        | Some _, [] | None, _ :: _ -> ok := false
      in
      for _ = 1 to 10_000 do
        if Random.State.int rng 3 < 2 || !model = [] then begin
          let p = float_of_int (Random.State.int rng 8) in
          Heap.push h ~priority:p ~seq:!seq !seq;
          insert p !seq !seq;
          incr seq
        end
        else check_pop ()
      done;
      while !model <> [] || not (Heap.is_empty h) do
        check_pop ()
      done;
      !ok)

(* {2 Engine} *)

let test_engine_runs_in_time_order () =
  let engine = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.schedule_at engine ~time:3. (note "c"));
  ignore (Engine.schedule_at engine ~time:1. (note "a"));
  ignore (Engine.schedule_at engine ~time:2. (note "b"));
  Engine.run engine;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 0.)) "clock at last event" 3. (Engine.now engine)

let test_engine_same_time_fifo () =
  let engine = Engine.create () in
  let log = ref [] in
  for i = 0 to 4 do
    ignore (Engine.schedule_at engine ~time:1. (fun () -> log := i :: !log))
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "fifo at equal times" [ 0; 1; 2; 3; 4 ] (List.rev !log)

let test_engine_rejects_past () =
  let engine = Engine.create () in
  ignore (Engine.schedule_at engine ~time:5. (fun () -> ()));
  Engine.run engine;
  Alcotest.(check bool) "clock advanced" true (Float.equal (Engine.now engine) 5.);
  let raised =
    with_sanitizer_disarmed (fun () ->
        try
          ignore (Engine.schedule_at engine ~time:1. (fun () -> ()));
          false
        with Invalid_argument _ -> true)
  in
  Alcotest.(check bool) "past rejected" true raised

let test_engine_schedule_after () =
  let engine = Engine.create () in
  let fired_at = ref (-1.) in
  ignore
    (Engine.schedule_after engine ~delay:2. (fun () ->
         fired_at := Engine.now engine;
         ignore (Engine.schedule_after engine ~delay:3. (fun () -> ()))));
  Engine.run engine;
  Alcotest.(check (float 0.)) "fired at 2" 2. !fired_at;
  Alcotest.(check (float 0.)) "chained until 5" 5. (Engine.now engine)

let test_engine_cancellation () =
  let engine = Engine.create () in
  let fired = ref false in
  let handle = Engine.schedule_at engine ~time:1. (fun () -> fired := true) in
  Alcotest.(check bool) "not yet cancelled" false (Engine.cancelled engine handle);
  Engine.cancel engine handle;
  Alcotest.(check bool) "cancelled" true (Engine.cancelled engine handle);
  Engine.run engine;
  Alcotest.(check bool) "did not fire" false !fired

let test_engine_cancel_twice_is_noop () =
  let engine = Engine.create () in
  let handle = Engine.schedule_at engine ~time:1. (fun () -> ()) in
  Engine.cancel engine handle;
  Engine.cancel engine handle;
  Engine.run engine

(* A fired event's cell is recycled for the next schedule; the handle of
   the fired event must read as stale and cancelling it must not touch
   the new occupant of the cell. *)
let test_engine_cell_recycling_generation_safety () =
  let engine = Engine.create () in
  let first = ref false in
  let second = ref false in
  let h1 = Engine.schedule_at engine ~time:1. (fun () -> first := true) in
  Engine.run engine;
  Alcotest.(check bool) "first fired" true !first;
  Alcotest.(check bool) "fired handle is stale" true (Engine.cancelled engine h1);
  (* The slab hands low indices out first, so h2 reuses h1's cell. *)
  let h2 = Engine.schedule_at engine ~time:2. (fun () -> second := true) in
  Engine.cancel engine h1;
  Alcotest.(check bool) "new occupant unaffected" false (Engine.cancelled engine h2);
  Engine.run engine;
  Alcotest.(check bool) "second fired" true !second

(* Cancelling recycles the cell immediately; the stale entry still in
   the heap must be skipped when its time comes, without disturbing the
   event that reused the cell. *)
let test_engine_cancel_then_recycle_stale_heap_entry () =
  let engine = Engine.create () in
  let cancelled_fired = ref false in
  let reused_fired = ref false in
  let h1 = Engine.schedule_at engine ~time:1. (fun () -> cancelled_fired := true) in
  Engine.cancel engine h1;
  ignore (Engine.schedule_at engine ~time:1. (fun () -> reused_fired := true));
  Engine.run engine;
  Alcotest.(check bool) "cancelled event silent" false !cancelled_fired;
  Alcotest.(check bool) "recycled cell's event fired" true !reused_fired;
  Alcotest.(check (float 0.)) "clock advanced" 1. (Engine.now engine)

(* The cell is consumed before the action runs, so a handler cancelling
   its own handle is a generation-checked no-op. *)
let test_engine_cancel_self_inside_handler () =
  let engine = Engine.create () in
  let fired = ref false in
  let self = ref None in
  let h =
    Engine.schedule_at engine ~time:1. (fun () ->
        (match !self with Some h -> Engine.cancel engine h | None -> ());
        fired := true)
  in
  self := Some h;
  Engine.run engine;
  Alcotest.(check bool) "fired despite self-cancel" true !fired

let test_engine_cancel_other_inside_handler () =
  let engine = Engine.create () in
  let victim_fired = ref false in
  let h2 = Engine.schedule_at engine ~time:2. (fun () -> victim_fired := true) in
  ignore (Engine.schedule_at engine ~time:1. (fun () -> Engine.cancel engine h2));
  Engine.run engine;
  Alcotest.(check bool) "victim cancelled from handler" false !victim_fired

(* Ports: registered once, scheduled by reference, including a port that
   reschedules itself — the link transmit loop's shape. *)
let test_engine_ports () =
  let engine = Engine.create () in
  let count = ref 0 in
  let p = ref (Engine.port engine (fun () -> ())) in
  p :=
    Engine.port engine (fun () ->
        incr count;
        if !count < 5 then Engine.schedule_port_after engine ~delay:1. !p);
  Engine.schedule_port_at engine ~time:1. !p;
  Engine.run engine;
  Alcotest.(check int) "self-rescheduling port fired 5 times" 5 !count;
  Alcotest.(check (float 0.)) "clock at last firing" 5. (Engine.now engine)

(* Heavy churn through the slab: a long self-rescheduling chain plus
   cancelled bystanders must leave the engine fully drained. *)
let test_engine_slab_churn () =
  let engine = Engine.create () in
  let count = ref 0 in
  let rec chain () =
    incr count;
    if !count < 1000 then begin
      ignore (Engine.schedule_after engine ~delay:1. chain);
      let doomed = Engine.schedule_after engine ~delay:0.5 (fun () -> Alcotest.fail "doomed") in
      Engine.cancel engine doomed
    end
  in
  ignore (Engine.schedule_after engine ~delay:1. chain);
  Engine.run engine;
  Alcotest.(check int) "chain completed" 1000 !count;
  Alcotest.(check int) "queue drained" 0 (Engine.pending engine)

let test_engine_until_horizon () =
  let engine = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> ignore (Engine.schedule_at engine ~time:t (fun () -> fired := t :: !fired)))
    [ 1.; 2.; 3.; 10. ];
  Engine.run ~until:5. engine;
  Alcotest.(check (list (float 0.))) "events before horizon" [ 1.; 2.; 3. ] (List.rev !fired);
  Alcotest.(check (float 0.)) "clock at horizon" 5. (Engine.now engine);
  Alcotest.(check int) "pending event survives" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (float 0.)) "resumes past horizon" 10. (Engine.now engine)

let test_engine_stop () =
  let engine = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore
      (Engine.schedule_after engine ~delay:1. (fun () ->
           incr count;
           if !count = 3 then Engine.stop engine))
  done;
  Engine.run engine;
  Alcotest.(check int) "stopped after 3" 3 !count;
  Engine.run engine;
  Alcotest.(check int) "resumable" 10 !count

let test_engine_step () =
  let engine = Engine.create () in
  ignore (Engine.schedule_at engine ~time:1. (fun () -> ()));
  Alcotest.(check bool) "step true" true (Engine.step engine);
  Alcotest.(check bool) "step false when empty" false (Engine.step engine)

let test_engine_negative_delay_rejected () =
  let engine = Engine.create () in
  let raised =
    with_sanitizer_disarmed (fun () ->
        try
          ignore (Engine.schedule_after engine ~delay:(-1.) (fun () -> ()));
          false
        with Invalid_argument _ -> true)
  in
  Alcotest.(check bool) "negative delay rejected" true raised

let prop_engine_fires_all_in_order =
  QCheck.Test.make ~name:"engine fires every event in time order" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 50) (float_bound_exclusive 100.))
    (fun times ->
      let engine = Engine.create () in
      let fired = ref [] in
      List.iter
        (fun t -> ignore (Engine.schedule_at engine ~time:t (fun () -> fired := t :: !fired)))
        times;
      Engine.run engine;
      let fired = List.rev !fired in
      List.length fired = List.length times
      && fired = List.sort Float.compare times)

(* Random interleavings of scheduling, cancellation (of interior heap
   entries, and from inside handlers), seq reservation and stepping,
   against a reference that keeps the live events in a plain list and
   fires the (time, seq) minimum.  The engine must fire the same events
   in the same order, and [pending] must equal the live count after
   every operation. *)
type ref_event = { id : int; time : float; seq : int; handle : Engine.handle }

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine matches a sorted-list reference" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 150) (pair (int_bound 9) (pair (int_bound 5) small_nat)))
    (fun ops ->
      let engine = Engine.create () in
      let live = ref [] in
      let next_seq = ref 0 and next_id = ref 0 in
      let reserved = Queue.create () in
      let dead = ref [] in
      let fired = ref [] in
      let ok = ref true in
      let take_seq () =
        let s = !next_seq in
        incr next_seq;
        s
      in
      let fresh_id () =
        let i = !next_id in
        incr next_id;
        i
      in
      let cancel_kth k =
        let cs = Array.of_list (List.filter (fun e -> not (Engine.is_null e.handle)) !live) in
        if Array.length cs > 0 then begin
          let victim = cs.(k mod Array.length cs) in
          live := List.filter (fun e -> e.id <> victim.id) !live;
          dead := victim.handle :: !dead;
          Engine.cancel engine victim.handle
        end
      in
      (* [nested]: 0 plain, 1 cancels another live event when fired, 2
         schedules a follow-up when fired. *)
      let rec schedule_cell ~delay ~nested ~k =
        let id = fresh_id () in
        let time = Engine.now engine +. delay in
        let seq = take_seq () in
        let action () =
          fired := id :: !fired;
          match nested with
          | 1 -> cancel_kth k
          | 2 -> schedule_cell ~delay:(float_of_int (k mod 3)) ~nested:0 ~k:0
          | _ -> ()
        in
        let handle = Engine.schedule_at engine ~time action in
        live := { id; time; seq; handle } :: !live
      in
      let port_event ~delay ~seq ~reserved_seq =
        let id = fresh_id () in
        let time = Engine.now engine +. delay in
        let p = Engine.port engine (fun () -> fired := id :: !fired) in
        (match reserved_seq with
        | None -> Engine.schedule_port_at engine ~time p
        | Some seq -> Engine.schedule_port_reserved engine ~time ~seq p);
        live := { id; time; seq; handle = Engine.null } :: !live
      in
      let step () =
        let before = List.length !fired in
        match !live with
        | [] -> if Engine.step engine then ok := false
        | e0 :: rest ->
          let first =
            List.fold_left
              (fun a e -> if e.time < a.time || (e.time = a.time && e.seq < a.seq) then e else a)
              e0 rest
          in
          live := List.filter (fun e -> e.id <> first.id) !live;
          if not (Engine.is_null first.handle) then dead := first.handle :: !dead;
          let stepped = Engine.step engine in
          (* One step fires exactly one handler; nested actions only
             schedule or cancel. *)
          let fired_now = match !fired with id :: _ -> id | [] -> -1 in
          if
            not
              (stepped
              && List.length !fired = before + 1
              && fired_now = first.id
              && Float.equal (Engine.now engine) first.time)
          then ok := false
      in
      List.iter
        (fun (op, (a, b)) ->
          let delay = float_of_int a in
          (match op with
          | 0 | 1 | 2 -> schedule_cell ~delay ~nested:(b mod 3) ~k:b
          | 3 -> port_event ~delay ~seq:(take_seq ()) ~reserved_seq:None
          | 4 ->
            let seq = Engine.reserve_seq engine in
            if seq <> take_seq () then ok := false;
            Queue.push seq reserved
          | 5 ->
            if not (Queue.is_empty reserved) then begin
              let seq = Queue.pop reserved in
              port_event ~delay ~seq ~reserved_seq:(Some seq)
            end
          | 6 -> cancel_kth b
          | 7 -> (match !dead with h :: _ -> Engine.cancel engine h | [] -> ())
          | _ -> step ());
          if Engine.pending engine <> List.length !live then ok := false)
        ops;
      while !live <> [] do
        step ();
        if Engine.pending engine <> List.length !live then ok := false
      done;
      !ok && not (Engine.step engine))

let suite =
  [
    ("heap empty", `Quick, test_heap_empty);
    ("heap orders by priority", `Quick, test_heap_orders_by_priority);
    ("heap fifo ties", `Quick, test_heap_fifo_ties);
    ("heap grows", `Quick, test_heap_grows);
    ("heap nan total order", `Quick, test_heap_nan_total_order);
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_heap_matches_reference;
    ("engine time order", `Quick, test_engine_runs_in_time_order);
    ("engine same-time fifo", `Quick, test_engine_same_time_fifo);
    ("engine rejects past", `Quick, test_engine_rejects_past);
    ("engine schedule_after", `Quick, test_engine_schedule_after);
    ("engine cancellation", `Quick, test_engine_cancellation);
    ("engine cancel twice", `Quick, test_engine_cancel_twice_is_noop);
    ("engine cell recycling", `Quick, test_engine_cell_recycling_generation_safety);
    ("engine cancel then recycle", `Quick, test_engine_cancel_then_recycle_stale_heap_entry);
    ("engine cancel self in handler", `Quick, test_engine_cancel_self_inside_handler);
    ("engine cancel other in handler", `Quick, test_engine_cancel_other_inside_handler);
    ("engine ports", `Quick, test_engine_ports);
    ("engine slab churn", `Quick, test_engine_slab_churn);
    ("engine run until", `Quick, test_engine_until_horizon);
    ("engine stop", `Quick, test_engine_stop);
    ("engine step", `Quick, test_engine_step);
    ("engine negative delay", `Quick, test_engine_negative_delay_rejected);
    QCheck_alcotest.to_alcotest prop_engine_fires_all_in_order;
    QCheck_alcotest.to_alcotest prop_engine_matches_reference;
  ]
