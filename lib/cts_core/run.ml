module Buffer_lib = Circuit.Buffer_lib

type placed = { buf : Buffer_lib.t; dist : float }

type eval = {
  delay_below : float;
  buffers : placed list;
  top_free : float;
  top_stub_len : float;
  top_load : float;
  feasible : bool;
}

(* Spans depend only on (buffer, load class, slew target); memoize.
   The memo is an arena, not a hashed-tuple table: one arena per delay
   library (physical identity), whose cells live in one flat array
   indexed by (slew-target row, driver-name slot, load-class index) —
   a span lookup is two short array scans and one array index, with no
   tuple key allocation and no hashing.

   Concurrency: each cell carries an atomic state (empty / computing /
   ready). The ready fast path is lock-free; the miss computation runs
   OUTSIDE the global critical section — [span_mutex] only brackets the
   empty->computing and computing->ready transitions (and layout
   growth), so first-time characterization of distinct keys proceeds in
   parallel. The state machine still guarantees each key is computed
   exactly once process-wide: racing domains used to duplicate the
   (identical) computation, which was value-safe but made the Obs
   delay-library evaluation counts schedule-dependent. Exactly one
   caller takes the empty->computing transition (and counts the one
   miss); everyone else waits on [span_cond] and counts a hit — the
   same totals a sequential run reports. *)
type span_cell = {
  sc_state : int Atomic.t;  (* 0 empty, 1 computing, 2 ready *)
  mutable sc_value : float; (* meaningful once [sc_state] = 2 *)
}

(* Layouts are immutable snapshots swapped atomically: a reader always
   sees consistent (slews, names, cells) packing. Growth (a new slew
   target or a foreign driver, both rare) copies the arrays but shares
   the cell records, so values filled through any layout are visible
   through every layout. *)
type span_layout = {
  sl_slews : float array;     (* slew-target rows, append-only *)
  sl_names : string array;    (* driver-name slots, append-only *)
  sl_cells : span_cell array; (* ((slew * names) + name) * classes + class *)
}

type span_arena = {
  sa_dl : Delaylib.t;  (* identity key; never dereferenced for equality *)
  sa_classes : int;
  sa_layout : span_layout Atomic.t;
}

let span_mutex = Mutex.create ()
let span_cond = Condition.create ()
let span_arenas : span_arena list Atomic.t = Atomic.make []

let rec find_arena dl = function
  | [] -> raise Not_found
  | (a : span_arena) :: tl -> if a.sa_dl == dl then a else find_arena dl tl

(* The scans are top-level recursive functions, not local [let rec]s:
   a local recursive closure capturing the array costs ~6 minor words
   per call, which is most of what the arena saved on the hit path. *)
let rec scan_name names n i name =
  if i >= n then -1
  else if String.equal (Array.unsafe_get names i) name then i
  else scan_name names n (i + 1) name

let idx_of_name names name = scan_name names (Array.length names) 0 name

let rec scan_slew slews n i (s : float) =
  if i >= n then -1
  else if (Array.unsafe_get slews i = s) [@cts.float_eq_ok] then i
  else scan_slew slews n (i + 1) s

(* Exact bit equality is the memo-key identity, as it was for the
   hashed tuple key before: epsilon-close but distinct slew targets are
   distinct keys. *)
let idx_of_slew slews s = scan_slew slews (Array.length slews) 0 s

let[@cts.guarded "mutex:span_mutex"] arena_for dl =
  match find_arena dl (Atomic.get span_arenas) with
  | a -> a
  | exception Not_found ->
      Mutex.lock span_mutex;
      let a =
        match find_arena dl (Atomic.get span_arenas) with
        | a -> a
        | exception Not_found ->
            let names =
              Array.of_list
                (List.map
                   (fun (b : Buffer_lib.t) -> b.Buffer_lib.name)
                   (Delaylib.buffers dl))
            in
            let a =
              {
                sa_dl = dl;
                sa_classes = Delaylib.n_classes dl;
                sa_layout =
                  Atomic.make
                    { sl_slews = [||]; sl_names = names; sl_cells = [||] };
              }
            in
            Atomic.set span_arenas (a :: Atomic.get span_arenas);
            a
      in
      Mutex.unlock span_mutex;
      a

(* Called under [span_mutex]. Extends the layout so (slew, name) exists;
   existing cells keep their (slew, name, class) coordinates because
   both axes grow append-only. *)
let[@cts.guarded "mutex:span_mutex"] grow_layout arena ~slew ~name =
  let lay = Atomic.get arena.sa_layout in
  let slews =
    if idx_of_slew lay.sl_slews slew < 0 then
      Array.append lay.sl_slews [| slew |]
    else lay.sl_slews
  in
  let names =
    if idx_of_name lay.sl_names name < 0 then
      Array.append lay.sl_names [| name |]
    else lay.sl_names
  in
  if slews != lay.sl_slews || names != lay.sl_names then begin
    let nn = Array.length names in
    let old_nn = Array.length lay.sl_names in
    let old_ns = Array.length lay.sl_slews in
    let cells =
      Array.init
        (Array.length slews * nn * arena.sa_classes)
        (fun idx ->
          let c = idx mod arena.sa_classes in
          let rest = idx / arena.sa_classes in
          let ni = rest mod nn and si = rest / nn in
          if si < old_ns && ni < old_nn then
            lay.sl_cells.((((si * old_nn) + ni) * arena.sa_classes) + c)
          else { sc_state = Atomic.make 0; sc_value = 0. })
    in
    Atomic.set arena.sa_layout { sl_slews = slews; sl_names = names; sl_cells = cells }
  end

let cell_index lay ~classes ~si ~ni ~cls =
  (((si * Array.length lay.sl_names) + ni) * classes) + cls

(* Settle one cell: wait out a concurrent computation, or claim the
   empty->computing transition and fill the cell with the lock
   released. *)
let[@cts.guarded "mutex:span_mutex"] span_fill dl (cfg : Cts_config.t) ~drive
    ~load_cap cell =
  (* Claim or wait under the lock, compute with it released. Every
     critical section is a [Mutex.protect] so a raise anywhere (the
     delay model rejects infeasible coordinates) cannot leak the
     lock. *)
  let outcome =
    Mutex.protect span_mutex (fun () ->
        let rec wait () =
          match Atomic.get cell.sc_state with
          | 2 -> `Hit cell.sc_value
          | 1 ->
              Condition.wait span_cond span_mutex;
              wait ()
          | _ ->
              Atomic.set cell.sc_state 1;
              `Claimed
        in
        wait ())
  in
  match outcome with
  | `Hit v ->
      Obs.incr Obs.Span_cache_hits;
      v
  | `Claimed ->
      Obs.incr Obs.Span_cache_misses;
      let v =
        try
          Delaylib.max_length_for_slew dl ~drive ~load_cap
            ~input_slew:cfg.slew_target ~slew_limit:cfg.slew_target
        with e ->
          (* Roll back so the key stays computable (and the next
             attempt pays a fresh miss, as the old table did). *)
          Mutex.protect span_mutex (fun () ->
              Atomic.set cell.sc_state 0;
              Condition.broadcast span_cond);
          raise e
      in
      Mutex.protect span_mutex (fun () ->
          cell.sc_value <- v;
          Atomic.set cell.sc_state 2;
          Condition.broadcast span_cond);
      v

let span_slow dl cfg ~drive ~load_cap ~cls arena =
  (* The layout lacks this (slew, name) coordinate: grow it under the
     lock, then settle the cell like any other. *)
  Mutex.lock span_mutex;
  grow_layout arena ~slew:cfg.Cts_config.slew_target
    ~name:drive.Buffer_lib.name;
  let lay = Atomic.get arena.sa_layout in
  let si = idx_of_slew lay.sl_slews cfg.Cts_config.slew_target in
  let ni = idx_of_name lay.sl_names drive.Buffer_lib.name in
  let cell = lay.sl_cells.(cell_index lay ~classes:arena.sa_classes ~si ~ni ~cls) in
  Mutex.unlock span_mutex;
  span_fill dl cfg ~drive ~load_cap cell

let span dl (cfg : Cts_config.t) ~drive ~load_cap =
  let cls = Delaylib.class_index dl load_cap in
  let arena = arena_for dl in
  let lay = Atomic.get arena.sa_layout in
  let si = idx_of_slew lay.sl_slews cfg.slew_target in
  let ni =
    if si < 0 then -1 else idx_of_name lay.sl_names drive.Buffer_lib.name
  in
  if ni >= 0 then begin
    let cell = lay.sl_cells.(cell_index lay ~classes:arena.sa_classes ~si ~ni ~cls) in
    if Atomic.get cell.sc_state = 2 then begin
      Obs.incr Obs.Span_cache_hits;
      cell.sc_value
    end
    else span_fill dl cfg ~drive ~load_cap cell
  end
  else span_slow dl cfg ~drive ~load_cap ~cls arena

(* The arenas are process-global and outlive one synthesis; tests that
   compare counter snapshots across runs reset them so both runs pay
   the same misses. *)
let[@cts.guarded "mutex:span_mutex"] reset_span_cache () =
  Mutex.lock span_mutex;
  Atomic.set span_arenas [];
  Mutex.unlock span_mutex

(* Arena-occupancy gauges, sampled at phase boundaries on the
   coordinator (Cts.synthesize level loop). Scans the cell array, so it
   stays out of the hot path by construction; the layout read is the
   same lock-free atomic load the hit path uses, and a cell counts as
   filled only in the ready state — cells mid-computation are still
   misses-in-flight. *)
let sample_span_gauges dl =
  if Obs.enabled () then begin
    match find_arena dl (Atomic.get span_arenas) with
    | exception Not_found ->
        Obs.gauge_set Obs.Span_arena_slots 0;
        Obs.gauge_set Obs.Span_arena_filled 0
    | arena ->
        let lay = Atomic.get arena.sa_layout in
        let filled = ref 0 in
        Array.iter
          (fun cell -> if Atomic.get cell.sc_state = 2 then incr filled)
          lay.sl_cells;
        Obs.gauge_set Obs.Span_arena_slots (Array.length lay.sl_cells);
        Obs.gauge_set Obs.Span_arena_filled !filled
  end

let stage_delay dl (cfg : Cts_config.t) drive ~length ~load_cap =
  Delaylib.stage_delay dl ~drive ~load_cap ~input_slew:cfg.slew_target ~length

let stage_step dl (cfg : Cts_config.t) drive =
  let gate = Buffer_lib.input_cap (Delaylib.tech dl) drive in
  span dl cfg ~drive ~load_cap:gate

(* Intelligent sizing (Fig. 4.4): among all buffer types, find the one
   whose feasible span (stretching the slew closest to the target) is
   longest; prefer a smaller type when it comes within
   [prefer_small_within] of the best. Returns (buffer, span). *)
let choose_buffer dl (cfg : Cts_config.t) ~stub_len ~load_cap =
  let candidates =
    List.map
      (fun b -> (b, span dl cfg ~drive:b ~load_cap -. stub_len))
      (Delaylib.buffers dl)
  in
  let best_span =
    List.fold_left (fun acc (_, s) -> Float.max acc s) neg_infinity candidates
  in
  let good (_, s) = s >= best_span -. cfg.prefer_small_within in
  (* The smallest good candidate, the first on a tie. The fold starts
     from the library's first buffer with a NaN span, which is never
     good, so the first good candidate replaces it. *)
  List.fold_left
    (fun pick ((b, _) as c) ->
      if good c && not (good pick && (fst pick).Buffer_lib.size <= b.Buffer_lib.size)
      then c
      else pick)
    (Delaylib.first_buffer dl, Float.nan)
    candidates

(* --------------------------------------------------------------- *)
(* The greedy walk (Sec. 4.2.2).

   One step of the walk has a length-independent half — the
   assumed-driver span over the stub (kept in the state) and the buffer
   intelligent sizing picks with its span — and a length-dependent half
   that decides, at run length [length], whether the top is reached
   ([reaches_top]) and otherwise whether the walk bails out or how much
   wire the buffer drives ([next_wire]). [apply] then plants it. The
   sizing is only computed below the top. Every walk — the legalizing
   [?place] path, balance, the DP incumbent and the maze's prefix
   chains — runs these functions; there is no second copy of the step
   arithmetic. *)

(* What the walk carries from one buffer to the next. *)
type walk = {
  pos : float;  (* last fixed node above the port (um) *)
  stub_len : float;
  stub_load : float;
  assumed_span : float;  (* of the assumed driver over the stub *)
  delay : float;
  feasible : bool;
  placed : placed list;  (* newest first *)
}

let assumed_span dl (cfg : Cts_config.t) ~stub_load =
  cfg.top_margin *. span dl cfg ~drive:cfg.assumed_driver ~load_cap:stub_load

let start dl cfg (port : Port.t) =
  {
    pos = 0.;
    stub_len = port.Port.stub_len;
    stub_load = port.Port.stub_load;
    assumed_span = assumed_span dl cfg ~stub_load:port.Port.stub_load;
    delay = port.Port.delay;
    feasible = true;
    placed = [];
  }

(* The rest of the run can stay unbuffered under the assumed upstream
   driver. *)
let[@inline] reaches_top ~length w =
  w.stub_len +. (length -. w.pos) <= w.assumed_span

(* [next_wire]'s bail-out code: a stage always drives more than 0.5 um
   (it ends past [pos + 1] and before [length + 0.5]). *)
let bail_out = -1.

(* [placed] is the legalized position of the next buffer. *)
let[@inline] stage_wire ~length ~pos ~remaining placed =
  if
    placed <= ((pos +. 1.) [@cts.unit_ok])
    || placed >= ((length +. 0.5) [@cts.unit_ok])
  then
    (* Either the stub alone violates the budget, or the legalized
       position degenerates (at/behind the previous buffer, or past the
       run top): same bail-out. *)
    bail_out
  else Float.min (placed -. pos) remaining

(* Below the top: the wire the next buffer, of span [buf_span], drives
   at run length [length], or [bail_out]. [place = None] is the
   blockage-free run. *)
let[@inline] next_wire ~place ~length w ~buf_span =
  let remaining = length -. w.pos in
  let ideal = Float.max 0. (Float.min buf_span remaining) in
  match place with
  | None -> stage_wire ~length ~pos:w.pos ~remaining (w.pos +. ideal)
  | Some legalize -> (
      (* Legalize the planned position against blockages. [None] means
         no legal position exists anywhere up the rest of the path:
         stop inserting; the merge guard legalizes a buffer near the
         merge point. *)
      match legalize ~cur:w.pos (w.pos +. ideal) with
      | None -> bail_out
      | Some placed -> stage_wire ~length ~pos:w.pos ~remaining placed)

(* Plant [buf] [wire] um above the state: it drives (wire + stub) into
   the stub load. *)
let apply dl cfg w ~buf ~buf_span wire =
  Obs.incr Obs.Run_buffers_placed;
  let pos = w.pos +. wire in
  let stub_load = Buffer_lib.input_cap (Delaylib.tech dl) buf in
  {
    pos;
    stub_len = 0.;
    stub_load;
    assumed_span = assumed_span dl cfg ~stub_load;
    delay =
      w.delay
      +. stage_delay dl cfg buf ~length:(wire +. w.stub_len) ~load_cap:w.stub_load;
    feasible =
      w.feasible && not (buf_span <= 0. || wire > (1.15 *. buf_span) +. 1.);
    placed = { buf; dist = pos } :: w.placed;
  }

(* The top of the run hangs under the assumed driver. *)
let finish ~length w ~feasible =
  let top_free = length -. w.pos in
  let top_stub_len = w.stub_len +. top_free in
  {
    delay_below = w.delay;
    buffers = List.rev w.placed;
    top_free;
    top_stub_len;
    top_load = w.stub_load;
    feasible = feasible && not (top_stub_len > w.assumed_span);
  }

(* [sizing] is the state's (buffer, span) when the caller has it. *)
let rec walk_from dl cfg ~place ~length w sizing =
  if reaches_top ~length w then finish ~length w ~feasible:w.feasible
  else begin
    let buf, buf_span =
      match sizing with
      | Some s -> s
      | None -> choose_buffer dl cfg ~stub_len:w.stub_len ~load_cap:w.stub_load
    in
    let wire = next_wire ~place ~length w ~buf_span in
    if wire > 0. then
      walk_from dl cfg ~place ~length (apply dl cfg w ~buf ~buf_span wire) None
    else finish ~length w ~feasible:false
  end

let eval_greedy ?place dl (cfg : Cts_config.t) (port : Port.t) length =
  Obs.incr Obs.Run_evals;
  walk_from dl cfg ~place ~length (start dl cfg port) None

(* --------------------------------------------------------------- *)
(* Prefix chains: the maze probes one port at thousands of lengths.
   Buffer k lands at the same place for every length that extends past
   it, so the walk at an unbounded length — every step a full span, the
   top never reached — is recorded once, and a probe replays its
   prefix. *)

type link = {
  state : walk;
  buf : Buffer_lib.t;
  buf_span : float;
  wire : float;  (* full step to the next link; NaN on the last *)
}

type chain = link array

let chain dl cfg (port : Port.t) ~max_d =
  let rec grow w acc =
    let buf, buf_span =
      choose_buffer dl cfg ~stub_len:w.stub_len ~load_cap:w.stub_load
    in
    let wire = next_wire ~place:None ~length:Float.infinity w ~buf_span in
    (* A probe of length L confirms a step only when the buffer lands
       before L + 0.5, so states past max_d + 1 are never reached. *)
    if (not (wire > 0.)) || w.pos +. wire > ((max_d +. 1.) [@cts.unit_ok]) then
      Array.of_list
        (List.rev ({ state = w; buf; buf_span; wire = Float.nan } :: acc))
    else
      grow
        (apply dl cfg w ~buf ~buf_span wire)
        ({ state = w; buf; buf_span; wire } :: acc)
  in
  grow (start dl cfg port) []

(* Advance while the length-dependent half confirms, at [length], the
   chain's full step to the next link — below the top, same wire to the
   bit — and return the link reached. *)
let rec confirmed (c : chain) ~length i =
  if i + 1 >= Array.length c then i
  else begin
    let l = c.(i) in
    if reaches_top ~length l.state then i
    else begin
      let wire = next_wire ~place:None ~length l.state ~buf_span:l.buf_span in
      if Int64.equal (Int64.bits_of_float wire) (Int64.bits_of_float l.wire)
      then confirmed c ~length (i + 1)
      else i
    end
  end

let eval_chain dl cfg (c : chain) length =
  Obs.incr Obs.Run_evals;
  let l = c.(confirmed c ~length 0) in
  walk_from dl cfg ~place:None ~length l.state (Some (l.buf, l.buf_span))

(* --------------------------------------------------------------- *)
(* Optimal multi-cell insertion: van Ginneken-style candidate-set DP
   with b buffer types (Li & Shi, arXiv:0710.4691).                 *)

let area_of_eval (e : eval) =
  List.fold_left
    (fun a (p : placed) -> a +. Buffer_lib.area_x p.buf)
    0. e.buffers

let run_cost dl (cfg : Cts_config.t) (e : eval) =
  let top =
    Delaylib.wire_delay dl ~drive:cfg.assumed_driver ~load_cap:e.top_load
      ~input_slew:cfg.slew_target ~length:e.top_stub_len
  in
  let area = area_of_eval e in
  (e.delay_below +. top +. (cfg.dp_area_weight *. area), area)

let cost_better c1 a1 c2 a2 =
  match Float.compare c1 c2 with
  | 0 -> Float.compare a1 a2 < 0
  | c -> c < 0

(* One DP state: the last buffer planted so far, with the best (min
   cost) way of reaching it. [cost] is delay plus the area term; [delay]
   is the pure delay kept alongside so the reconstructed [eval] carries
   the same [delay_below] semantics as the greedy engine. *)
type dp_state = {
  s_cost : float;
  s_delay : float;
  s_area : float;
  s_from : int * int;  (* (position, type) below; (-1, -1) is the port *)
}

let eval_dp ?positions ?(place = fun ~cur:_ d -> Some d) dl
    (cfg : Cts_config.t) (port : Port.t) length =
  Obs.incr Obs.Dp_evals;
  let tech = Delaylib.tech dl in
  let types = Array.of_list (Delaylib.buffers dl) in
  let b = Array.length types in
  let caps = Array.map (fun t -> Buffer_lib.input_cap tech t) types in
  let areas = Array.map Buffer_lib.area_x types in
  (* Candidate positions: a uniform [dp_grid] grid (or the caller's
     list), legalized one by one against blockages and kept strictly
     increasing; degenerate positions — closer than 1 um to the port or
     the previous candidate, or within 0.5 um of the run top — are
     dropped, mirroring the greedy engine's bail-out conditions. *)
  let raw =
    match positions with
    | Some ps -> List.sort Float.compare ps
    | None ->
        let n = cfg.dp_grid in
        List.init (n - 1) (fun k ->
            float_of_int (k + 1) *. length /. float_of_int n)
  in
  let pos_list =
    let prev = ref 0. in
    List.filter_map
      (fun d ->
        if d <= ((!prev +. 1.) [@cts.unit_ok]) || d >= ((length -. 0.5) [@cts.unit_ok]) then None
        else
          match place ~cur:!prev d with
          | None -> None
          | Some l ->
              if
                l <= ((!prev +. 1.) [@cts.unit_ok])
                || l >= ((length -. 0.5) [@cts.unit_ok])
              then None
              else begin
                prev := l;
                Some l
              end)
      raw
  in
  let p = Array.of_list pos_list in
  let m = Array.length p in
  (* Stage-delay memo keyed (type, load class, 0.01 um-quantized length)
     — the same key identity the old tuple-keyed hashtables used, so the
     distinct-computation set (and with it the Obs delay-library
     evaluation counts) is unchanged. The representation is flat: every
     distinct quantized length gets a dense id up front (the candidate
     positions are known), classes are {!Delaylib.class_index} ints, and
     the memo is one float array indexed ((len * b) + type) * ncls + cls
     with a -1 sentinel (stage delays are clamped non-negative by
     [eval_single]). The O(b n^2) transition scan below therefore boxes
     no tuple keys and hashes nothing; on a uniform grid the (i, j)
     pairs collapse onto O(n) distinct lengths, so the table costs
     O(b n) delay-library lookups. Call-local scratch, never shared
     across domains. *)
  let ncls = Delaylib.n_classes dl in
  let cls_of_type = Array.map (fun c -> Delaylib.class_index dl c) caps in
  let cls_port = Delaylib.class_index dl port.Port.stub_load in
  let quantize len = int_of_float (Float.round ((len *. 100.) [@cts.unit_ok])) in
  let len_ids : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let id_of_len len =
    let k = quantize len in
    match Hashtbl.find_opt len_ids k with
    | Some id -> id
    | None ->
        let id = Hashtbl.length len_ids in
        Hashtbl.add len_ids k id;
        id
  in
  let port_len_id =
    Array.init m (fun i -> id_of_len (p.(i) +. port.Port.stub_len))
  in
  let pair_len_id =
    Array.init (m * m) (fun idx ->
        let i = idx / m and j = idx mod m in
        if j < i then id_of_len (p.(i) -. p.(j)) else -1)
  in
  let sd_tab =
    Array.make (Int.max 1 (Hashtbl.length len_ids * b * ncls)) (-1.)
  in
  let stage_cost t_idx ~len_id ~len ~cls ~load_cap =
    let slot = (((len_id * b) + t_idx) * ncls) + cls in
    let d = Array.unsafe_get sd_tab slot in
    if d >= 0. then d
    else begin
      let d = stage_delay dl cfg types.(t_idx) ~length:len ~load_cap in
      Array.unsafe_set sd_tab slot d;
      d
    end
  in
  (* Spans hoisted out of the O(b n^2) scan: only b + 1 distinct loads
     occur (each type's input cap and the port stub), so the mutex-guarded
     process-global [span] memo is consulted O(b^2) times per eval instead
     of once per transition. *)
  let span_port = Array.init b (fun t ->
      span dl cfg ~drive:types.(t) ~load_cap:port.Port.stub_load)
  in
  let span_tt = Array.init b (fun t ->
      Array.init b (fun t' ->
          span dl cfg ~drive:types.(t) ~load_cap:caps.(t')))
  in
  let assumed_span_cap = Array.init b (fun t ->
      cfg.top_margin
      *. span dl cfg ~drive:cfg.assumed_driver ~load_cap:caps.(t))
  in
  let assumed_span_port =
    cfg.top_margin
    *. span dl cfg ~drive:cfg.assumed_driver ~load_cap:port.Port.stub_load
  in
  (* Top-wire delay memo, same quantization and flat layout as
     [sd_tab]: the candidate tops collapse onto O(n) distinct lengths
     and b + 1 load classes (wire delays are likewise clamped
     non-negative, so -1 is free as the empty sentinel). *)
  let top_ids : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let top_id_of len =
    let k = quantize len in
    match Hashtbl.find_opt top_ids k with
    | Some id -> id
    | None ->
        let id = Hashtbl.length top_ids in
        Hashtbl.add top_ids k id;
        id
  in
  let base_top_id = top_id_of (length +. port.Port.stub_len) in
  let cand_top_id = Array.init m (fun i -> top_id_of (length -. p.(i))) in
  let top_tab = Array.make (Int.max 1 (Hashtbl.length top_ids * ncls)) (-1.) in
  let top_wire_delay ~top_id ~cls ~top_stub_len ~top_load =
    let slot = (top_id * ncls) + cls in
    let d = top_tab.(slot) in
    if d >= 0. then d
    else begin
      let d =
        Delaylib.wire_delay dl ~drive:cfg.assumed_driver ~load_cap:top_load
          ~input_slew:cfg.slew_target ~length:top_stub_len
      in
      top_tab.(slot) <- d;
      d
    end
  in
  (* best.(i*b + t): cheapest way to stand a type-t buffer at position
     i; None when no slew-feasible chain reaches that state. (Flat so
     every write targets the call-local array head directly.) *)
  let best = Array.make (m * b) None in
  let best_get i t = best.((i * b) + t) in
  (* Sorted candidate list per position (the Li–Shi trick): the row's
     states collapsed per delay-library load class — states whose
     class and cost are both no better than another's are inferior and
     never consulted again — kept sorted by input capacitance. Future
     stage delay and span depend on the source state only through its
     load class, so the prune is exact. *)
  let fronts = Array.make m [] in
  let consider i t cand =
    match best_get i t with
    | Some cur when not (cost_better cand.s_cost cand.s_area cur.s_cost cur.s_area)
      -> ()
    | _ -> best.((i * b) + t) <- Some cand
  in
  for i = 0 to m - 1 do
    for t = 0 to b - 1 do
      (* From the port itself: the stage swallows the port stub. *)
      let stage_len = p.(i) +. port.Port.stub_len in
      if stage_len <= span_port.(t) then begin
        let d =
          stage_cost t ~len_id:port_len_id.(i) ~len:stage_len ~cls:cls_port
            ~load_cap:port.Port.stub_load
        in
        consider i t
          {
            s_cost = port.Port.delay +. d +. (cfg.dp_area_weight *. areas.(t));
            s_delay = port.Port.delay +. d;
            s_area = areas.(t);
            s_from = (-1, -1);
          }
      end;
      (* From every earlier candidate's pruned front. *)
      for j = 0 to i - 1 do
        let stage_len = p.(i) -. p.(j) in
        List.iter
          (fun (t', (st : dp_state)) ->
            if stage_len <= span_tt.(t).(t') then begin
              let d =
                stage_cost t
                  ~len_id:pair_len_id.((i * m) + j)
                  ~len:stage_len ~cls:cls_of_type.(t') ~load_cap:caps.(t')
              in
              consider i t
                {
                  s_cost = st.s_cost +. d +. (cfg.dp_area_weight *. areas.(t));
                  s_delay = st.s_delay +. d;
                  s_area = st.s_area +. areas.(t);
                  s_from = (j, t');
                }
            end)
          fronts.(j)
      done
    done;
    (* Build position i's pruned front: best state per load class,
       sorted by input cap (type order is cap order in a sane library;
       sort anyway for libraries listed arbitrarily). *)
    let row = ref [] in
    for t = b - 1 downto 0 do
      match best_get i t with
      | Some st ->
          Obs.incr Obs.Dp_candidates;
          let cls = cls_of_type.(t) in
          let replaced = ref false in
          row :=
            List.map
              (fun (t', st') ->
                if cls_of_type.(t') = cls then begin
                  replaced := true;
                  if cost_better st.s_cost st.s_area st'.s_cost st'.s_area
                  then begin
                    Obs.incr Obs.Dp_pruned;
                    (t, st)
                  end
                  else begin
                    Obs.incr Obs.Dp_pruned;
                    (t', st')
                  end
                end
                else (t', st'))
              !row;
          if not !replaced then row := (t, st) :: !row
      | None -> ()
    done;
    fronts.(i) <-
      List.sort (fun (t1, _) (t2, _) -> Float.compare caps.(t1) caps.(t2)) !row
  done;
  (* Finalize: every state (and the buffer-free base) tops out with the
     remaining wire hanging under the assumed upstream driver — the same
     convention and feasibility check as the greedy engine. *)
  let finalize ~top_id ~cls ~top_stub_len ~top_load ~assumed_span ~cost ~area =
    let top_ok = top_stub_len <= assumed_span in
    (top_ok, cost +. top_wire_delay ~top_id ~cls ~top_stub_len ~top_load, area)
  in
  let best_final = ref None in
  let consider_final key (ok, c, a) =
    let better =
      match !best_final with
      | None -> true
      | Some (ok', c', a', _) ->
          if ok && not ok' then true
          else if ok' && not ok then false
          else cost_better c a c' a'
    in
    if better then best_final := Some (ok, c, a, key)
  in
  consider_final (-1, -1)
    (finalize ~top_id:base_top_id ~cls:cls_port
       ~top_stub_len:(length +. port.Port.stub_len)
       ~top_load:port.Port.stub_load ~assumed_span:assumed_span_port
       ~cost:port.Port.delay ~area:0.);
  for i = 0 to m - 1 do
    for t = 0 to b - 1 do
      match best_get i t with
      | Some st ->
          consider_final (i, t)
            (finalize ~top_id:cand_top_id.(i) ~cls:cls_of_type.(t)
               ~top_stub_len:(length -. p.(i))
               ~top_load:caps.(t) ~assumed_span:assumed_span_cap.(t)
               ~cost:st.s_cost ~area:st.s_area)
      | None -> ()
    done
  done;
  (* Memo-effectiveness gauges: slots allocated vs. slots written for
     this eval's two flat tables. Additive across evals (and absorbed
     from task deltas in task-index order), so the totals are
     schedule-independent; the scan runs only when observability is on
     and costs O(slots) against the O(b n^2) DP that just ran. *)
  if Obs.enabled () then begin
    let filled tab =
      let k = ref 0 in
      Array.iter (fun d -> if d >= 0. then incr k) tab;
      !k
    in
    Obs.gauge_add Obs.Dp_memo_slots
      (Array.length sd_tab + Array.length top_tab);
    Obs.gauge_add Obs.Dp_memo_filled (filled sd_tab + filled top_tab)
  end;
  let feasible, (ri, rt) =
    match !best_final with
    | Some (ok, _, _, key) -> (ok, key)
    | None -> assert false (* the base state is always considered *)
  in
  if ri < 0 then
    {
      delay_below = port.Port.delay;
      buffers = [];
      top_free = length;
      top_stub_len = length +. port.Port.stub_len;
      top_load = port.Port.stub_load;
      feasible;
    }
  else begin
    (* Walk the back-pointers down to the port. *)
    let rec rebuild i t acc =
      match best_get i t with
      | None -> assert false
      | Some st ->
          let acc = { buf = types.(t); dist = p.(i) } :: acc in
          let j, t' = st.s_from in
          if j < 0 then acc else rebuild j t' acc
    in
    let buffers = rebuild ri rt [] in
    (* [feasible] implies the DP sweep filled the root cell — rebuild
       above already walked it. *)
    let st =
      match best_get ri rt with Some st -> st | None -> assert false
    in
    {
      delay_below = st.s_delay;
      buffers;
      top_free = length -. p.(ri);
      top_stub_len = length -. p.(ri);
      top_load = caps.(rt);
      feasible;
    }
  end

(* The public entry point: dispatch on the configured engine. Under
   [Optimal_dp] the greedy solution is kept as an incumbent — the DP
   returns whichever of the two costs less under [run_cost], so the DP
   engine is never worse than greedy on the shared objective (the
   property test/t_insertion.ml locks), and blockage-heavy runs where
   the discretized DP goes infeasible degrade to the proven greedy
   behavior. *)
let eval ?place dl (cfg : Cts_config.t) (port : Port.t) length =
  match cfg.insertion with
  | Cts_config.Greedy -> eval_greedy ?place dl cfg port length
  | Cts_config.Optimal_dp ->
      let g = eval_greedy ?place dl cfg port length in
      let d = eval_dp ?place dl cfg port length in
      let pick_greedy =
        if g.feasible && not d.feasible then true
        else if d.feasible && not g.feasible then false
        else begin
          let gc, ga = run_cost dl cfg g in
          let dc, da = run_cost dl cfg d in
          cost_better gc ga dc da
        end
      in
      if pick_greedy then begin
        Obs.incr Obs.Dp_fallbacks;
        g
      end
      else d
