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

(* A span is a pure function of (library, slew target, driver, load
   class): [Delaylib.max_length_for_slew] reads the load cap only
   through its class. One immutable table per (library by physical
   identity, slew target) holds the span of every library buffer for
   every load class, built in one pass and then only read, so lookups
   from any domain need no lock. *)
type span_table = {
  st_dl : Delaylib.t;  (* identity key; never compared structurally *)
  st_slew : float;
  st_names : string array;  (* buffer-name slots, library order *)
  st_classes : int;
  st_spans : float array;  (* (slot * st_classes) + class *)
}

let span_tables : span_table list Atomic.t = Atomic.make []

(* Exact equality is the key identity: epsilon-close but distinct slew
   targets get distinct tables. *)
let[@inline] has_key dl (slew : float) t =
  t.st_dl == dl && (t.st_slew = slew) [@cts.float_eq_ok]

(* The lookup scans are top-level recursive functions, not local
   [let rec]s: a local recursive closure capturing its arguments costs
   ~6 minor words per call. *)
let rec find_table dl slew = function
  | [] -> raise Not_found
  | t :: tl -> if has_key dl slew t then t else find_table dl slew tl

let rec scan_name names n i name =
  if i >= n then -1
  else if String.equal (Array.unsafe_get names i) name then i
  else scan_name names n (i + 1) name

(* Replace any table with the same key: the one compare-and-set retries
   only when another domain published in between. *)
let[@cts.guarded "atomic"] rec publish t =
  let old = Atomic.get span_tables in
  let others = List.filter (fun u -> not (has_key t.st_dl t.st_slew u)) old in
  if not (Atomic.compare_and_set span_tables old (t :: others)) then publish t

let build dl (cfg : Cts_config.t) =
  let slew = cfg.slew_target in
  let bufs = Array.of_list (Delaylib.buffers dl) in
  let classes = Delaylib.classes dl in
  let n = Array.length classes in
  (* Evaluated at each class's own cap, which [class_index] maps back
     to that class. *)
  let spans =
    Array.init (Array.length bufs * n) (fun k ->
        Delaylib.max_length_for_slew dl ~drive:bufs.(k / n)
          ~load_cap:classes.(k mod n) ~input_slew:slew ~slew_limit:slew)
  in
  Obs.incr ~n:(Array.length spans) Obs.Span_cache_misses;
  let t =
    {
      st_dl = dl;
      st_slew = slew;
      st_names = Array.map (fun (b : Buffer_lib.t) -> b.Buffer_lib.name) bufs;
      st_classes = n;
      st_spans = spans;
    }
  in
  publish t;
  t

let build_span_table dl cfg = ignore (build dl cfg : span_table)

let span dl (cfg : Cts_config.t) ~drive ~load_cap =
  let t =
    match find_table dl cfg.slew_target (Atomic.get span_tables) with
    | t -> t
    | exception Not_found -> build dl cfg
  in
  let name = drive.Buffer_lib.name in
  let slot = scan_name t.st_names (Array.length t.st_names) 0 name in
  if slot < 0 then
    invalid_arg ("Run.span: " ^ name ^ " is not a buffer of the delay library");
  Obs.incr Obs.Span_cache_hits;
  t.st_spans.((slot * t.st_classes) + Delaylib.class_index dl load_cap)

(* A synthesis builds its own table whatever is published, so only a
   direct caller's counters see this. *)
let reset_span_cache () = Atomic.set span_tables []

let stage_delay dl (cfg : Cts_config.t) drive ~length ~load_cap =
  Delaylib.stage_delay dl ~drive ~load_cap ~input_slew:cfg.slew_target ~length

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

let top_margin = 0.7

let assumed_span dl (cfg : Cts_config.t) ~stub_load =
  top_margin *. span dl cfg ~drive:cfg.assumed_driver ~load_cap:stub_load

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

let[@inline] cost_better c1 a1 c2 a2 =
  match Float.compare c1 c2 with
  | 0 -> Float.compare a1 a2 < 0
  | c -> c < 0

(* The incumbent rule: the DP result [d] unless the greedy result [g] is
   feasible where [d] is not, or cheaper under [run_cost]. Greedy's wins
   count in [Obs.Dp_fallbacks]. *)
let pick dl cfg (g : eval) (d : eval) =
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

(* The stage-delay and top-wire memos key lengths to 0.01 um. *)
let[@inline] quantize len =
  int_of_float (Float.round ((len *. 100.) [@cts.unit_ok]))

(* Dense ids 0, 1, ... for distinct int keys, in first-seen order: an
   open-addressing table for at most [n] keys, at most half full, so a
   probe always ends at the key or at an empty slot ([ids] < 0). The
   DP keeps one per id space and clears it per evaluation. *)
type interner = {
  intern : int -> int;
  count : unit -> int;
  clear : unit -> unit;
}

let rec pow2_above n k = if k > n then k else pow2_above n (2 * k)

let rec id_slot (keys : int array) (ids : int array) mask (key : int) h =
  if Array.unsafe_get ids h < 0 || Array.unsafe_get keys h = key then h
  else id_slot keys ids mask key ((h + 1) land mask)

let interner n =
  let size = pow2_above (2 * n) 1 in
  let mask = size - 1 in
  let keys = Array.make size 0 and ids = Array.make size (-1) in
  let next = ref 0 in
  {
    intern =
      (fun key ->
        let hash = ((key * 0x2545F4914F6CDD1D) lsr 32) land mask in
        let h = id_slot keys ids mask key hash in
        if ids.(h) < 0 then begin
          keys.(h) <- key;
          ids.(h) <- !next;
          incr next
        end;
        ids.(h));
    count = (fun () -> !next);
    clear =
      (fun () ->
        Array.fill ids 0 size (-1);
        next := 0);
  }

(* The front entry among [front.(base) .. front.(base + n - 1)] whose
   type has load class [cls], or [n]. *)
let rec class_at (front : int array) (cls_of_type : int array) base n
    (cls : int) k =
  if k >= n || cls_of_type.(front.(base + k)) = cls then k
  else class_at front cls_of_type base n cls (k + 1)

(* [from] of a (position, type) cell no chain reaches; -1 is the port. *)
let no_state = -2

type dp =
  (cur:(float[@cts.unit "um"]) -> (float[@cts.unit "um"]) ->
   (float[@cts.unit "um"]) option) option ->
  (float[@cts.unit "um"]) -> eval

(* The DP of one port (DESIGN.md 5g, 5n). What depends only on the port
   is computed here once: the buffer types with their input caps, areas
   and load classes, their stable cap order, the port's load class and
   all b^2 + 2b + 1 spans (a span depends only on the drive, the load
   class and the slew target). The returned function runs the DP at one
   run length in scratch sized here — from [dp_grid], or from the
   caller's [positions] — and reset per call, so a call allocates
   little beyond the delay-library lookups and its result. *)
let dp_context ?positions dl (cfg : Cts_config.t) (port : Port.t) : dp =
  let tech = Delaylib.tech dl in
  let types = Array.of_list (Delaylib.buffers dl) in
  let b = Array.length types in
  let caps = Array.map (fun t -> Buffer_lib.input_cap tech t) types in
  let areas = Array.map Buffer_lib.area_x types in
  let area_terms = Array.map (fun a -> cfg.dp_area_weight *. a) areas in
  let ncls = Delaylib.n_classes dl in
  let cls_of_type = Array.map (fun c -> Delaylib.class_index dl c) caps in
  let cls_port = Delaylib.class_index dl port.Port.stub_load in
  (* rank.(t): the place of type t in the stable cap order. *)
  let rank = Array.make b 0 in
  List.iteri
    (fun r t -> rank.(t) <- r)
    (List.stable_sort
       (fun t1 t2 -> Float.compare caps.(t1) caps.(t2))
       (List.init b Fun.id));
  let span_port =
    Array.map
      (fun d -> span dl cfg ~drive:d ~load_cap:port.Port.stub_load)
      types
  in
  let span_tt =
    Array.init (b * b) (fun k ->
        span dl cfg ~drive:types.(k / b) ~load_cap:caps.(k mod b))
  in
  let assumed_span_cap =
    Array.map
      (fun c ->
        top_margin *. span dl cfg ~drive:cfg.assumed_driver ~load_cap:c)
      caps
  in
  let assumed_span_port =
    top_margin
    *. span dl cfg ~drive:cfg.assumed_driver ~load_cap:port.Port.stub_load
  in
  (* Raw candidate positions: a uniform [dp_grid]-slot grid over the
     run, or the caller's list in ascending order. *)
  let fixed =
    match positions with
    | Some ps -> Some (Array.of_list (List.sort Float.compare ps))
    | None -> None
  in
  let slots =
    match fixed with
    | Some ps -> Array.length ps
    | None -> Int.max 0 (cfg.dp_grid - 1)
  in
  let grid_n = float_of_int cfg.dp_grid in
  (* Scratch. Port and pair stage lengths share one id space, the top
     wires have their own; a memo slot is ((id * b) + type) * ncls +
     load class and keeps the value of its first use (-1 = empty: delays
     are clamped non-negative). A (position, type) cell holds the
     cheapest chain that stands a buffer of that type there: cost (delay
     plus the area term), delay, area and the cell below ([from]). A
     position's front lists, in cap order, the types that survive the
     per-load-class prune. *)
  let max_len_ids = slots + (slots * (slots - 1) / 2) in
  let p = Array.make slots 0. in
  let len_ids = interner max_len_ids and top_ids = interner (slots + 1) in
  let port_id = Array.make slots 0 and pair_id = Array.make (slots * slots) 0 in
  let top_id = Array.make slots 0 in
  let stage_memo = Array.make (max_len_ids * b * ncls) (-1.) in
  let top_memo = Array.make ((slots + 1) * ncls) (-1.) in
  let cost = Array.make (slots * b) 0. and delay = Array.make (slots * b) 0. in
  let area = Array.make (slots * b) 0. in
  let from = Array.make (slots * b) no_state in
  let front = Array.make (slots * b) 0 and front_len = Array.make slots 0 in
  let filled = ref 0 in
  let top_delay slot ~load_cap ~length =
    let d = top_memo.(slot) in
    if d >= 0. then d
    else begin
      let d =
        Delaylib.wire_delay dl ~drive:cfg.assumed_driver ~load_cap
          ~input_slew:cfg.slew_target ~length
      in
      top_memo.(slot) <- d;
      if d >= 0. then incr filled;
      d
    end
  in
  fun place length ->
    Obs.incr Obs.Dp_evals;
    (* Candidates are legalized one by one against blockages and kept
       strictly increasing; degenerate positions — closer than 1 um to
       the port or the previous candidate, or within 0.5 um of the run
       top — are dropped, mirroring the greedy engine's bail-outs. *)
    let m = ref 0 and prev = ref 0. in
    for k = 0 to slots - 1 do
      let d =
        match fixed with
        | Some ps -> ps.(k)
        | None -> float_of_int (k + 1) *. length /. grid_n
      in
      if
        d <= ((!prev +. 1.) [@cts.unit_ok])
        || d >= ((length -. 0.5) [@cts.unit_ok])
      then ()
      else
        match place with
        | None ->
            p.(!m) <- d;
            incr m;
            prev := d
        | Some legalize -> (
            match legalize ~cur:!prev d with
            | None -> ()
            | Some l ->
                if
                  l <= ((!prev +. 1.) [@cts.unit_ok])
                  || l >= ((length -. 0.5) [@cts.unit_ok])
                then ()
                else begin
                  p.(!m) <- l;
                  incr m;
                  prev := l
                end)
    done;
    let m = !m in
    len_ids.clear ();
    for i = 0 to m - 1 do
      port_id.(i) <- len_ids.intern (quantize (p.(i) +. port.Port.stub_len))
    done;
    for i = 0 to m - 1 do
      for j = 0 to i - 1 do
        pair_id.((i * slots) + j) <- len_ids.intern (quantize (p.(i) -. p.(j)))
      done
    done;
    let stage_slots = len_ids.count () * b * ncls in
    Array.fill stage_memo 0 stage_slots (-1.);
    Array.fill from 0 (m * b) no_state;
    filled := 0;
    let candidates = ref 0 and pruned = ref 0 in
    for i = 0 to m - 1 do
      for t = 0 to b - 1 do
        let s = (i * b) + t in
        (* From the port itself: the stage swallows the port stub. *)
        let stage_len = p.(i) +. port.Port.stub_len in
        if stage_len <= span_port.(t) then begin
          let slot = (((port_id.(i) * b) + t) * ncls) + cls_port in
          let d = stage_memo.(slot) in
          let d =
            if d >= 0. then d
            else begin
              let d =
                stage_delay dl cfg types.(t) ~length:stage_len
                  ~load_cap:port.Port.stub_load
              in
              stage_memo.(slot) <- d;
              if d >= 0. then incr filled;
              d
            end
          in
          let d_below = port.Port.delay +. d in
          let c = d_below +. area_terms.(t) in
          if from.(s) = no_state || cost_better c areas.(t) cost.(s) area.(s)
          then begin
            cost.(s) <- c;
            delay.(s) <- d_below;
            area.(s) <- areas.(t);
            from.(s) <- -1
          end
        end;
        (* From every earlier position's front. *)
        for j = 0 to i - 1 do
          let stage_len = p.(i) -. p.(j) in
          let len_id = pair_id.((i * slots) + j) in
          for k = 0 to front_len.(j) - 1 do
            let t' = front.((j * b) + k) in
            if stage_len <= span_tt.((t * b) + t') then begin
              let slot = (((len_id * b) + t) * ncls) + cls_of_type.(t') in
              let d = stage_memo.(slot) in
              let d =
                if d >= 0. then d
                else begin
                  let d =
                    stage_delay dl cfg types.(t) ~length:stage_len
                      ~load_cap:caps.(t')
                  in
                  stage_memo.(slot) <- d;
                  if d >= 0. then incr filled;
                  d
                end
              in
              let s' = (j * b) + t' in
              let c = cost.(s') +. d +. area_terms.(t) in
              let a = area.(s') +. areas.(t) in
              if from.(s) = no_state || cost_better c a cost.(s) area.(s)
              then begin
                cost.(s) <- c;
                delay.(s) <- delay.(s') +. d;
                area.(s) <- a;
                from.(s) <- s'
              end
            end
          done
        done
      done;
      (* Position i's front: per load class the cheapest state — types
         scanned from the last, a later-scanned one replacing the holder
         only when strictly cheaper — then sorted into cap order. Future
         stage delays and spans see a state only through its load class,
         so the prune is exact (the Li–Shi sorted-list trick). *)
      let base = i * b in
      let n = ref 0 in
      for t = b - 1 downto 0 do
        let s = base + t in
        if from.(s) <> no_state then begin
          incr candidates;
          let k = class_at front cls_of_type base !n cls_of_type.(t) 0 in
          if k < !n then begin
            incr pruned;
            let s' = base + front.(base + k) in
            if cost_better cost.(s) area.(s) cost.(s') area.(s') then
              front.(base + k) <- t
          end
          else begin
            front.(base + !n) <- t;
            incr n
          end
        end
      done;
      for k = 1 to !n - 1 do
        let t = front.(base + k) in
        let q = ref (k - 1) in
        while !q >= 0 && rank.(front.(base + !q)) > rank.(t) do
          front.(base + !q + 1) <- front.(base + !q);
          decr q
        done;
        front.(base + !q + 1) <- t
      done;
      front_len.(i) <- !n
    done;
    (* Finalize: the buffer-free base and every state top out with the
       remaining wire under the assumed upstream driver — the greedy
       engine's convention and feasibility check. The base is considered
       first, so the pick always has a value. *)
    top_ids.clear ();
    let base_top = top_ids.intern (quantize (length +. port.Port.stub_len)) in
    for i = 0 to m - 1 do
      top_id.(i) <- top_ids.intern (quantize (length -. p.(i)))
    done;
    let top_slots = top_ids.count () * ncls in
    Array.fill top_memo 0 top_slots (-1.);
    let top_stub_len = length +. port.Port.stub_len in
    let best = ref (-1) and best_ok = ref (top_stub_len <= assumed_span_port) in
    let best_cost =
      ref
        (port.Port.delay
        +. top_delay
             ((base_top * ncls) + cls_port)
             ~load_cap:port.Port.stub_load ~length:top_stub_len)
    in
    let best_area = ref 0. in
    for i = 0 to m - 1 do
      for t = 0 to b - 1 do
        let s = (i * b) + t in
        if from.(s) <> no_state then begin
          let top_stub_len = length -. p.(i) in
          let ok = top_stub_len <= assumed_span_cap.(t) in
          let c =
            cost.(s)
            +. top_delay
                 ((top_id.(i) * ncls) + cls_of_type.(t))
                 ~load_cap:caps.(t) ~length:top_stub_len
          in
          let better =
            if ok && not !best_ok then true
            else if !best_ok && not ok then false
            else cost_better c area.(s) !best_cost !best_area
          in
          if better then begin
            best := s;
            best_ok := ok;
            best_cost := c;
            best_area := area.(s)
          end
        end
      done
    done;
    if Obs.enabled () then begin
      Obs.incr ~n:!candidates Obs.Dp_candidates;
      Obs.incr ~n:!pruned Obs.Dp_pruned;
      Obs.gauge_add Obs.Dp_memo_slots
        (Int.max 1 stage_slots + Int.max 1 top_slots);
      Obs.gauge_add Obs.Dp_memo_filled !filled
    end;
    if !best < 0 then
      {
        delay_below = port.Port.delay;
        buffers = [];
        top_free = length;
        top_stub_len = length +. port.Port.stub_len;
        top_load = port.Port.stub_load;
        feasible = !best_ok;
      }
    else begin
      (* Walk the back-pointers down to the port. *)
      let buffers = ref [] and s = ref !best in
      while !s >= 0 do
        buffers := { buf = types.(!s mod b); dist = p.(!s / b) } :: !buffers;
        s := from.(!s)
      done;
      let top = length -. p.(!best / b) in
      {
        delay_below = delay.(!best);
        buffers = !buffers;
        top_free = top;
        top_stub_len = top;
        top_load = caps.(!best mod b);
        feasible = !best_ok;
      }
    end

let eval_dp ?positions ?place dl cfg port length =
  dp_context ?positions dl cfg port place length

(* The public entry point: dispatch on the configured engine. Under
   [Optimal_dp] the greedy solution is kept as an incumbent ([pick]), so
   the DP engine is never worse than greedy on the shared objective (the
   property test/t_insertion.ml locks), and blockage-heavy runs where
   the discretized DP goes infeasible degrade to the proven greedy
   behavior. *)
let eval ?place dl (cfg : Cts_config.t) (port : Port.t) length =
  match cfg.insertion with
  | Cts_config.Greedy -> eval_greedy ?place dl cfg port length
  | Cts_config.Optimal_dp ->
      let g = eval_greedy ?place dl cfg port length in
      pick dl cfg g (eval_dp ?place dl cfg port length)

(* --------------------------------------------------------------- *)
(* A maze side: one port probed at many lengths within one select. *)

type side = {
  side_dl : Delaylib.t;
  side_cfg : Cts_config.t;
  side_chain : chain;
  side_dp : dp option;  (* under [Optimal_dp] *)
}

let side dl (cfg : Cts_config.t) port ~max_d =
  {
    side_dl = dl;
    side_cfg = cfg;
    side_chain = chain dl cfg port ~max_d;
    side_dp =
      (match cfg.insertion with
      | Cts_config.Greedy -> None
      | Cts_config.Optimal_dp -> Some (dp_context dl cfg port));
  }

let eval_side s length =
  let g = eval_chain s.side_dl s.side_cfg s.side_chain length in
  match s.side_dp with
  | None -> g
  | Some dp -> pick s.side_dl s.side_cfg g (dp None length)
