(* The run record. See qor.mli for the determinism and versioning
   contracts. *)

module J = Obs_json

let schema_version = 2

type buffer_type_row = { cell : string; count : int; area_x : float }

type slew_margin = {
  stages : int;
  min_ps : float;
  p50_ps : float;
  p95_ps : float;
  max_ps : float;
}

type gc = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

type span = {
  name : string;
  id : int;
  parent : int;
  depth : int;
  domain : int;
  start_ms : float;
  dur_ms : float;
  gc : gc option;
}

type t = {
  version : int;
  label : string;
  profile : string;
  scale : float;
  sinks : int;
  levels : int;
  skew_ps : float;
  max_latency_ps : float;
  mean_latency_ps : float;
  worst_slew_ps : float;
  slew_margin : slew_margin;
  total_wire_um : float;
  snaked_wire_um : float;
  buffer_count : int;
  buffer_area_x : float;
  buffers_by_type : buffer_type_row list;
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * (int * int) list) list;
  spans : span list;
}

let round3 x = Float.round (x *. 1e3) /. 1e3
let ps x = round3 (x *. 1e12)

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)

let spans_of (snap : Obs.snapshot) =
  let t0 =
    List.fold_left
      (fun t (s : Obs.span) -> Float.min t s.Obs.t_start)
      infinity snap.Obs.spans
  in
  List.map
    (fun (s : Obs.span) ->
      {
        name = s.Obs.span_name;
        id = s.Obs.span_id;
        parent = s.Obs.parent_id;
        depth = s.Obs.depth;
        domain = s.Obs.domain;
        start_ms = round3 ((s.Obs.t_start -. t0) *. 1e3);
        dur_ms = round3 (Float.max 0. (s.Obs.t_stop -. s.Obs.t_start) *. 1e3);
        gc =
          Option.map
            (fun (g : Obs.gc_delta) ->
              {
                minor_words = g.Obs.minor_words;
                major_words = g.Obs.major_words;
                promoted_words = g.Obs.promoted_words;
                minor_collections = g.Obs.minor_collections;
                major_collections = g.Obs.major_collections;
              })
            s.Obs.gc;
      })
    snap.Obs.spans

let no_obs = { Obs.counters = []; gauges = []; histograms = []; spans = [] }

let capture ?(label = "unnamed") ?(profile = "custom") ?(scale = 1.0)
    ?(obs = no_obs) ?(runtime = false) dl (config : Cts_config.t)
    (res : Cts.result) =
  let tree = res.Cts.tree in
  let report = Timing.analyze_tree dl config tree in
  let delays = Array.of_list (List.map snd report.Timing.sink_delays) in
  let margins =
    Array.of_list
      (List.map
         (fun s -> (config.Cts_config.slew_limit -. s) *. 1e12)
         report.Timing.stage_slews)
  in
  let pct = Util.Stats.percentile margins in
  let slew_margin =
    {
      stages = Array.length margins;
      min_ps = round3 (pct 0.0);
      p50_ps = round3 (pct 0.5);
      p95_ps = round3 (pct 0.95);
      max_ps = round3 (pct 1.0);
    }
  in
  let lib = Delaylib.buffers dl in
  let buffers_by_type =
    List.sort
      (fun a b -> String.compare a.cell b.cell)
      (List.map
         (fun (cell, count) ->
           let area =
             match
               List.find_opt
                 (fun (b : Circuit.Buffer_lib.t) ->
                   String.equal b.Circuit.Buffer_lib.name cell)
                 lib
             with
             | Some b -> float_of_int count *. Circuit.Buffer_lib.area_x b
             | None -> 0.
           in
           { cell; count; area_x = round3 area })
         (Ctree.buffer_histogram tree))
  in
  let buffer_area_x =
    round3 (List.fold_left (fun a r -> a +. r.area_x) 0. buffers_by_type)
  in
  {
    version = schema_version;
    label;
    profile;
    scale;
    sinks = List.length (Ctree.sinks tree);
    levels = res.Cts.levels;
    skew_ps = ps (Timing.skew report);
    max_latency_ps = ps report.Timing.max_delay;
    mean_latency_ps = ps (Util.Stats.mean delays);
    worst_slew_ps = ps report.Timing.worst_slew;
    slew_margin;
    total_wire_um = round3 (Ctree.total_wirelength tree);
    snaked_wire_um = round3 res.Cts.snaked_wirelength;
    buffer_count = Ctree.n_buffers tree;
    buffer_area_x;
    buffers_by_type;
    counters = obs.Obs.counters;
    gauges = obs.Obs.gauges;
    histograms = obs.Obs.histograms;
    spans = (if runtime then spans_of obs else []);
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let metrics q =
  let count prefix l =
    List.map (fun (n, v) -> (prefix ^ n, float_of_int v)) l
  in
  [
    ("timing.skew_ps", q.skew_ps);
    ("timing.max_latency_ps", q.max_latency_ps);
    ("timing.mean_latency_ps", q.mean_latency_ps);
    ("timing.worst_slew_ps", q.worst_slew_ps);
    ("slew_margin.min_ps", q.slew_margin.min_ps);
    ("slew_margin.p50_ps", q.slew_margin.p50_ps);
    ("slew_margin.p95_ps", q.slew_margin.p95_ps);
    ("wire.total_um", q.total_wire_um);
    ("wire.snaked_um", q.snaked_wire_um);
    ("buffers.count", float_of_int q.buffer_count);
    ("buffers.area_x", q.buffer_area_x);
    ("tree.levels", float_of_int q.levels);
    ("tree.sinks", float_of_int q.sinks);
  ]
  @ count "obs." q.counters
  @ count "gauge." q.gauges
  @ List.map
      (fun (n, buckets) ->
        ( "hist." ^ n ^ ".total",
          float_of_int (List.fold_left (fun a (_, v) -> a + v) 0 buckets) ))
      q.histograms
  @ List.map
      (fun (n, p) -> ("rate." ^ n, p))
      (Obs.derived_rates
         { no_obs with Obs.counters = q.counters; gauges = q.gauges })

(* ------------------------------------------------------------------ *)
(* Span-tree well-formedness                                           *)

(* Wall-clock rounding noise: two spans that abut may overlap by up to
   one rounding quantum on each edge. *)
let overlap_eps_ms = 0.002

let check_spans spans =
  let by_id = Hashtbl.create 64 in
  let dup =
    List.find_opt
      (fun s ->
        let seen = Hashtbl.mem by_id s.id in
        Hashtbl.replace by_id s.id s;
        seen)
      spans
  in
  match dup with
  | Some s -> Error (Printf.sprintf "duplicate span id %d (%s)" s.id s.name)
  | None -> (
      let bad =
        List.find_map
          (fun s ->
            if s.parent < 0 then
              if s.depth <> 0 then
                Some
                  (Printf.sprintf "root span %d (%s) has depth %d, want 0"
                     s.id s.name s.depth)
              else None
            else
              match Hashtbl.find_opt by_id s.parent with
              | None ->
                  Some
                    (Printf.sprintf "span %d (%s) has orphan parent %d" s.id
                       s.name s.parent)
              | Some p ->
                  if s.depth <> p.depth + 1 then
                    Some
                      (Printf.sprintf
                         "span %d (%s) depth %d under parent depth %d" s.id
                         s.name s.depth p.depth)
                  else if
                    s.start_ms +. overlap_eps_ms < p.start_ms
                    || s.start_ms +. s.dur_ms
                       > p.start_ms +. p.dur_ms +. overlap_eps_ms
                  then
                    Some
                      (Printf.sprintf
                         "span %d (%s) [%g..%g] escapes parent %d [%g..%g]"
                         s.id s.name s.start_ms (s.start_ms +. s.dur_ms)
                         p.id p.start_ms (p.start_ms +. p.dur_ms))
                  else None)
          spans
      in
      match bad with
      | Some msg -> Error msg
      | None ->
          (* Siblings on one domain share that domain's open-span stack,
             so they must be properly nested in time: sort each
             (parent, domain) family by start and demand disjointness.
             Cross-domain siblings (pool tasks of one job) legitimately
             overlap — that is the parallelism. *)
          let families = Hashtbl.create 16 in
          List.iter
            (fun s ->
              let key = (s.parent, s.domain) in
              let prev =
                match Hashtbl.find_opt families key with
                | Some l -> l
                | None -> []
              in
              Hashtbl.replace families key (s :: prev))
            spans;
          let bad = ref None in
          Hashtbl.iter
            (fun _ sibs ->
              if !bad = None then begin
                let sorted =
                  List.sort
                    (fun a b -> Float.compare a.start_ms b.start_ms)
                    sibs
                in
                let rec walk = function
                  | a :: (b :: _ as tl) ->
                      if b.start_ms +. overlap_eps_ms < a.start_ms +. a.dur_ms
                      then
                        bad :=
                          Some
                            (Printf.sprintf
                               "sibling spans %d (%s) and %d (%s) overlap \
                                on domain %d"
                               a.id a.name b.id b.name a.domain)
                      else walk tl
                  | _ -> ()
                in
                walk sorted
              end)
            families;
          (match !bad with Some msg -> Error msg | None -> Ok ()))

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

let to_json q =
  let num x = J.Num x in
  let int x = J.Num (float_of_int x) in
  let counts l = J.Obj (List.map (fun (n, v) -> (n, int v)) l) in
  let base =
    [
      ("qor_version", int q.version);
      ("label", J.Str q.label);
      ("profile", J.Str q.profile);
      ("scale", num q.scale);
      ("sinks", int q.sinks);
      ("levels", int q.levels);
      ( "timing_ps",
        J.Obj
          [
            ("skew", num q.skew_ps);
            ("max_latency", num q.max_latency_ps);
            ("mean_latency", num q.mean_latency_ps);
            ("worst_slew", num q.worst_slew_ps);
          ] );
      ( "slew_margin_ps",
        J.Obj
          [
            ("stages", int q.slew_margin.stages);
            ("min", num q.slew_margin.min_ps);
            ("p50", num q.slew_margin.p50_ps);
            ("p95", num q.slew_margin.p95_ps);
            ("max", num q.slew_margin.max_ps);
          ] );
      ( "wire_um",
        J.Obj
          [ ("total", num q.total_wire_um); ("snaked", num q.snaked_wire_um) ]
      );
      ( "buffers",
        J.Obj
          [
            ("count", int q.buffer_count);
            ("area_x", num q.buffer_area_x);
            ( "by_type",
              J.Arr
                (List.map
                   (fun r ->
                     J.Obj
                       [
                         ("cell", J.Str r.cell);
                         ("count", int r.count);
                         ("area_x", num r.area_x);
                       ])
                   q.buffers_by_type) );
          ] );
      ("counters", counts q.counters);
      ("gauges", counts q.gauges);
      ( "histograms",
        J.Obj
          (List.map
             (fun (n, buckets) ->
               ( n,
                 J.Obj
                   (List.map
                      (fun (k, v) -> (string_of_int k, int v))
                      buckets) ))
             q.histograms) );
    ]
  in
  let span s =
    J.Obj
      ([
         ("name", J.Str s.name);
         ("id", int s.id);
         ("parent", int s.parent);
         ("depth", int s.depth);
         ("domain", int s.domain);
         ("start_ms", num s.start_ms);
         ("dur_ms", num s.dur_ms);
       ]
      @
      match s.gc with
      | None -> []
      | Some g ->
          [
            ( "gc",
              J.Obj
                [
                  ("minor_words", num g.minor_words);
                  ("major_words", num g.major_words);
                  ("promoted_words", num g.promoted_words);
                  ("minor_collections", int g.minor_collections);
                  ("major_collections", int g.major_collections);
                ] );
          ])
  in
  let runtime =
    if q.spans = [] then []
    else [ ("runtime", J.Obj [ ("spans", J.Arr (List.map span q.spans)) ]) ]
  in
  J.Obj (base @ runtime)

(* ------------------------------------------------------------------ *)
(* Strict reader                                                       *)

let ( let* ) = Result.bind

let err path msg = Error (Printf.sprintf "%s: %s" path msg)

let obj path = function
  | J.Obj ms -> Ok ms
  | _ -> err path "expected an object"

let arr path = function
  | J.Arr items -> Ok items
  | _ -> err path "expected an array"

let field path ms key =
  match List.assoc_opt key ms with
  | Some v -> Ok v
  | None -> err (path ^ "." ^ key) "missing"

let fnum path ms key =
  let* v = field path ms key in
  Result.map_error (Printf.sprintf "%s.%s: %s" path key) (J.to_float v)

let fint path ms key =
  let* v = field path ms key in
  Result.map_error (Printf.sprintf "%s.%s: %s" path key) (J.to_int v)

let fstr path ms key =
  let* v = field path ms key in
  Result.map_error (Printf.sprintf "%s.%s: %s" path key) (J.to_str v)

let reject_unknown path ms allowed =
  match List.find_opt (fun (k, _) -> not (List.mem k allowed)) ms with
  | Some (k, _) -> err (path ^ "." ^ k) "unknown field (strict reader)"
  | None -> Ok ()

(* The path and members of the object at [path.key], after rejecting
   any key outside [allowed]. *)
let section path ms key allowed =
  let* v = field path ms key in
  let spath = path ^ "." ^ key in
  let* sms = obj spath v in
  let* () = reject_unknown spath sms allowed in
  Ok (spath, sms)

let list_fold path f items =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | x :: tl ->
        let* v = f (Printf.sprintf "%s[%d]" path i) x in
        go (i + 1) (v :: acc) tl
  in
  go 0 [] items

(* An open map of named integers ([counters], [gauges]). *)
let read_counts path v =
  let* ms = obj path v in
  list_fold path
    (fun p (n, v) ->
      let* i =
        Result.map_error (Printf.sprintf "%s(%s): %s" p n) (J.to_int v)
      in
      Ok (n, i))
    ms

let read_histograms path v =
  let* ms = obj path v in
  list_fold path
    (fun p (n, v) ->
      let hp = Printf.sprintf "%s(%s)" p n in
      let* bms = obj hp v in
      let* buckets =
        list_fold hp
          (fun bp (k, v) ->
            let* bucket =
              match int_of_string_opt k with
              | Some b -> Ok b
              | None -> err bp (Printf.sprintf "non-integer bucket key %S" k)
            in
            let* count =
              Result.map_error (Printf.sprintf "%s(%s): %s" bp k) (J.to_int v)
            in
            Ok (bucket, count))
          bms
      in
      Ok (n, buckets))
    ms

let read_by_type path v =
  let* ms = obj path v in
  let* () = reject_unknown path ms [ "cell"; "count"; "area_x" ] in
  let* cell = fstr path ms "cell" in
  let* count = fint path ms "count" in
  let* area_x = fnum path ms "area_x" in
  Ok { cell; count; area_x }

let read_span path v =
  let* ms = obj path v in
  let* () =
    reject_unknown path ms
      [ "name"; "id"; "parent"; "depth"; "domain"; "start_ms"; "dur_ms"; "gc" ]
  in
  let* name = fstr path ms "name" in
  let* id = fint path ms "id" in
  let* parent = fint path ms "parent" in
  let* depth = fint path ms "depth" in
  let* domain = fint path ms "domain" in
  let* start_ms = fnum path ms "start_ms" in
  let* dur_ms = fnum path ms "dur_ms" in
  let* gc =
    if not (List.mem_assoc "gc" ms) then Ok None
    else
      let* gpath, g =
        section path ms "gc"
          [
            "minor_words"; "major_words"; "promoted_words";
            "minor_collections"; "major_collections";
          ]
      in
      let* minor_words = fnum gpath g "minor_words" in
      let* major_words = fnum gpath g "major_words" in
      let* promoted_words = fnum gpath g "promoted_words" in
      let* minor_collections = fint gpath g "minor_collections" in
      let* major_collections = fint gpath g "major_collections" in
      Ok
        (Some
           {
             minor_words;
             major_words;
             promoted_words;
             minor_collections;
             major_collections;
           })
  in
  Ok { name; id; parent; depth; domain; start_ms; dur_ms; gc }

let of_json v =
  let path = "qor" in
  let* ms = obj path v in
  let* () =
    reject_unknown path ms
      [
        "qor_version"; "label"; "profile"; "scale"; "sinks"; "levels";
        "timing_ps"; "slew_margin_ps"; "wire_um"; "buffers"; "counters";
        "gauges"; "histograms"; "runtime";
      ]
  in
  let* version = fint path ms "qor_version" in
  if version <> schema_version then
    err (path ^ ".qor_version")
      (Printf.sprintf "unsupported version %d (supported: %d)" version
         schema_version)
  else
    let* label = fstr path ms "label" in
    let* profile = fstr path ms "profile" in
    let* scale = fnum path ms "scale" in
    let* sinks = fint path ms "sinks" in
    let* levels = fint path ms "levels" in
    let* tpath, tms =
      section path ms "timing_ps"
        [ "skew"; "max_latency"; "mean_latency"; "worst_slew" ]
    in
    let* skew_ps = fnum tpath tms "skew" in
    let* max_latency_ps = fnum tpath tms "max_latency" in
    let* mean_latency_ps = fnum tpath tms "mean_latency" in
    let* worst_slew_ps = fnum tpath tms "worst_slew" in
    let* spath, sms =
      section path ms "slew_margin_ps" [ "stages"; "min"; "p50"; "p95"; "max" ]
    in
    let* stages = fint spath sms "stages" in
    let* min_ps = fnum spath sms "min" in
    let* p50_ps = fnum spath sms "p50" in
    let* p95_ps = fnum spath sms "p95" in
    let* max_ps = fnum spath sms "max" in
    let* wpath, wms = section path ms "wire_um" [ "total"; "snaked" ] in
    let* total_wire_um = fnum wpath wms "total" in
    let* snaked_wire_um = fnum wpath wms "snaked" in
    let* bpath, bms =
      section path ms "buffers" [ "count"; "area_x"; "by_type" ]
    in
    let* buffer_count = fint bpath bms "count" in
    let* buffer_area_x = fnum bpath bms "area_x" in
    let* by_type_v = field bpath bms "by_type" in
    let* by_type_items = arr (bpath ^ ".by_type") by_type_v in
    let* buffers_by_type =
      list_fold (bpath ^ ".by_type") read_by_type by_type_items
    in
    let* counters_v = field path ms "counters" in
    let* counters = read_counts (path ^ ".counters") counters_v in
    let* gauges_v = field path ms "gauges" in
    let* gauges = read_counts (path ^ ".gauges") gauges_v in
    let* hists_v = field path ms "histograms" in
    let* histograms = read_histograms (path ^ ".histograms") hists_v in
    let* spans =
      if not (List.mem_assoc "runtime" ms) then Ok []
      else
        let* rpath, rms = section path ms "runtime" [ "spans" ] in
        let* spans_v = field rpath rms "spans" in
        let* items = arr (rpath ^ ".spans") spans_v in
        list_fold (rpath ^ ".spans") read_span items
    in
    Ok
      {
        version;
        label;
        profile;
        scale;
        sinks;
        levels;
        skew_ps;
        max_latency_ps;
        mean_latency_ps;
        worst_slew_ps;
        slew_margin = { stages; min_ps; p50_ps; p95_ps; max_ps };
        total_wire_um;
        snaked_wire_um;
        buffer_count;
        buffer_area_x;
        buffers_by_type;
        counters;
        gauges;
        histograms;
        spans;
      }

(* ------------------------------------------------------------------ *)
(* IO                                                                  *)

let render q = J.to_string ~pretty:true (to_json q)
let write_file path q = J.write_file path (to_json q)

let load_file path =
  let* contents = J.read_file path in
  Result.map_error (Printf.sprintf "%s: %s" path)
    (let* v = J.parse contents in
     of_json v)
