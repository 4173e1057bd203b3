(* The LCM service benchmark: three workloads, end-to-end metrics with
   tracing off, a per-layer ledger with tracing on.  See README.md.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1
             --lcmopt PATH [--out DIR]

   The last line of standard output is the result object; lines before it
   are a human-readable report. *)

module Cfg = Lcm_cfg.Cfg
module Patch = Lcm_cfg.Patch
module Frontend = Lcm_frontend.Frontend
module Engine = Lcm_server.Engine
module Protocol = Lcm_server.Protocol
module Stats = Lcm_server.Stats
module Json = Lcm_server.Json
module Lcm_edge = Lcm_core.Lcm_edge
module Transform = Lcm_core.Transform
module Local = Lcm_dataflow.Local
module Metrics = Lcm_eval.Metrics
module Prng = Lcm_support.Prng
module Pool = Lcm_support.Pool
module Expr_pool = Lcm_ir.Expr_pool

(* ---- results ---- *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;  (* reversed *)
}

let res = { attempted = 0; failed = 0; metrics = [] }
let metric name unit v = res.metrics <- (name, v, unit) :: res.metrics
let note fmt = Printf.printf (fmt ^^ "\n%!")

(* Count [n] attempted outputs of which [ok] verified. *)
let tally ~n ~ok =
  res.attempted <- res.attempted + n;
  res.failed <- res.failed + (n - ok)

let ms s = s *. 1000.

let setup_reps = 9

(* Set up [setup_reps] times and keep the last instance; [setup_s] is the
   median.  Earlier instances are released as soon as they are timed. *)
let setup ~release make =
  let times = ref [] and last = ref None in
  for _ = 1 to setup_reps do
    Option.iter release !last;
    let x, d = Util.duration make in
    times := d :: !times;
    last := Some x
  done;
  (Option.get !last, Util.median !times)

(* A closed loop of one client: [step i] sends request [i] and returns its
   latency in seconds.  Runs for [seconds], and at least [min_requests]
   (the prefix the exact ratios are taken over), and at most
   [max_requests] (the inputs generated).  Returns each request's
   (start offset, latency) in order, and the loop's wall time. *)
let closed_loop ~seconds ~min_requests ~max_requests step =
  let samples = ref [] and i = ref 0 in
  let start = Util.now () in
  while !i < max_requests && (!i < min_requests || Util.now () -. start < seconds) do
    let t = Util.now () -. start in
    samples := (t, step !i) :: !samples;
    incr i
  done;
  if !i = max_requests && Util.now () -. start < seconds then
    note "warning: inputs ran out after %.2f s" (Util.now () -. start);
  (List.rev !samples, Util.now () -. start)

let latencies samples = List.map snd samples

(* The traced run.  Its first quarter is untraced and gives the
   allocation and GC counts ([gc] wraps it).  The rest alternates untraced requests
   ([plain i] returns the latency) with traced ones ([traced i] records
   the request's span tree, replays included), so tracing overhead is
   taken between neighbours in time.  Returns the GC counts and the
   untraced latencies of the alternating part. *)
let traced_run ~seconds ~max_requests ~gc ~plain ~traced =
  let first = ref 0 in
  let counts =
    gc (fun () ->
        let lat, _ =
          closed_loop ~seconds:(seconds /. 4.) ~min_requests:0 ~max_requests plain
        in
        first := List.length lat;
        !first)
  in
  let untraced = ref [] in
  ignore
    (closed_loop ~seconds:(0.75 *. seconds) ~min_requests:4 ~max_requests:(max_requests - !first)
       (fun j ->
         let i = !first + j in
         Util.current_req := i;
         if j mod 2 = 0 then begin
           traced i;
           0.
         end
         else begin
           let l = plain i in
           untraced := l :: !untraced;
           l
         end));
  (counts, !untraced)

(* The root span of a traced request around [f]; returns [f]'s value, the
   root's id and its duration. *)
let root_span f =
  let sid = ref (-1) and d = ref 0. in
  let v =
    Util.timed ~parent:(-1) "request" (fun root ->
        sid := root;
        let v, dt = Util.duration (fun () -> f root) in
        d := dt;
        v)
  in
  (v, !sid, !d)

(* The timed loop is cut into up to five equal spans of wall time, each
   with about a hundred samples or more (so its p90 has ten beyond it);
   each latency metric is the median over the spans of that span's value,
   so a slow spell of the host in one span does not move it. *)
let latency_metrics ~setup_s ~samples ~wall =
  let windows = max 1 (min 5 (List.length samples / 100)) in
  let span = wall /. float_of_int windows in
  let per_window =
    List.init windows (fun w ->
        let lat =
          List.filter_map
            (fun (t, l) -> if min (windows - 1) (int_of_float (t /. span)) = w then Some l else None)
            samples
        in
        let s = Util.sorted_of_list lat in
        (ms (Util.quantile s 0.5), ms (Util.quantile s 0.9), float_of_int (Array.length s) /. span, Array.length s))
  in
  List.iteri
    (fun w (p50, p90, rps, n) ->
      note "window %d: %d samples, p50 %.3f ms, p90 %.3f ms, %.1f req/s" w n p50 p90 rps)
    per_window;
  let med f = Util.median (List.map f per_window) in
  metric "setup_s" "s" setup_s;
  metric "latency_p50_ms" "ms" (med (fun (x, _, _, _) -> x));
  metric "latency_p90_ms" "ms" (med (fun (_, x, _, _) -> x));
  metric "throughput_rps" "1/s" (med (fun (_, _, x, _) -> x))

let quality_metrics ~rss ratios =
  metric "peak_rss_mb" "MB" rss;
  metric "success_rate" "ratio"
    (float_of_int (res.attempted - res.failed) /. float_of_int (max 1 res.attempted));
  metric "eval_ratio" "ratio" (Oracle.eval_ratio ratios);
  metric "size_ratio" "ratio" (Oracle.size_ratio ratios)

(* ---- in-process serving ---- *)

let engine () = Engine.default_config ~no_timing:true (Stats.create ())

let parse_request frame =
  match Protocol.parse_request frame with
  | Ok r -> r
  | Error _ -> failwith "benchmark frame did not parse"

let execute cfg r = Engine.execute cfg ~now:Util.now ~arrival:(Util.now ()) ~deadline:None r
let serve cfg frame = execute cfg (parse_request frame)

let run_of (r : Protocol.request) =
  match r.Protocol.op with Protocol.Run r -> r | _ -> invalid_arg "run_of"

(* Allocation and collections of this process over [f], per request. *)
let gc_counts f =
  let g0 = Gc.quick_stat () in
  let n = f () in
  let g1 = Gc.quick_stat () in
  let words (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
  let per x = x /. float_of_int (max 1 n) in
  ( per (words g1 -. words g0),
    per (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections)),
    per (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)) )

(* The same counts from a server's stats op, over [f]. *)
let server_gc_counts proc f =
  let c s =
    ( Proc.counter s "gc.alloc_words",
      Proc.counter s "gc.minor_collections",
      Proc.counter s "gc.major_collections" )
  in
  let a0, mi0, ma0 = c (Proc.stats proc) in
  let n = f () in
  let a1, mi1, ma1 = c (Proc.stats proc) in
  let per x = float_of_int x /. float_of_int (max 1 n) in
  (per (a1 - a0), per (mi1 - mi0), per (ma1 - ma0))

(* ---- the ledger ----

   Layers nested inside a black-box request are timed by replaying their
   public calls on the request's own input, on the arena path the engine
   uses, and attached under the enclosing span. *)

let per_layer_names =
  [
    ("frontend.parse_cfg_ms", "ms");
    ("frontend.parse_bril_ms", "ms");
    ("frontend.print_ms", "ms");
    ("cfg.candidate_pool_ms", "ms");
    ("cfg.patch_ms", "ms");
    ("dataflow.safety_ms", "ms");
    ("dataflow.visits", "count");
    ("dataflow.sweeps", "count");
    ("core.analyze_ms", "ms");
    ("core.spec_ms", "ms");
    ("core.apply_ms", "ms");
    ("core.insertions", "count");
    ("core.deletions", "count");
    ("core.analyze_incr_ms", "ms");
    ("core.incr_region_blocks", "blocks");
    ("core.incr_fallbacks", "count");
    ("server.parse_request_ms", "ms");
    ("server.execute_ms", "ms");
    ("server.render_ms", "ms");
    ("server.pipe_ms", "ms");
    ("server.alloc_words_per_req", "words");
    ("server.gc_minor_per_req", "count");
    ("server.gc_major_per_req", "count");
    ("shard.router_ms", "ms");
    ("shard.hit_ms", "ms");
    ("shard.cache_hit_ratio", "ratio");
    ("shard.memo_hit_ratio", "ratio");
    ("unattributed_ms", "ms");
    ("trace.overhead_ms", "ms");
  ]

(* Spans whose self time no named layer claims: the request root's own
   residue and the engine's work outside the replayed layers. *)
let unattributed = [ "request"; "server.execute" ]

let render ~program ~before ~after =
  Protocol.ok_run ~id:Json.Null ~algorithm:"lcm-edge" ~workers:1 ~degraded:None ~validated:false
    ~program ~before ~after ~timing:None ()

(* Analyze, spec, apply, print and render one graph under [parent]. *)
let replay_solve ~parent g =
  let pool = Util.timed ~parent "cfg.candidate_pool" (fun _ -> Cfg.candidate_pool g) in
  let blocks = Cfg.label_bound g and exprs = Expr_pool.size pool in
  let safety =
    Pool.Scratch.with_arena ~blocks ~exprs (fun arena ->
        let local = Local.compute ~scratch:arena g pool in
        snd (Util.duration (fun () -> Lcm_edge.solve_safety_systems ~scratch:arena g local)))
  in
  Pool.Scratch.with_arena ~blocks ~exprs (fun arena ->
      let a =
        Util.timed ~parent "core.analyze" (fun sid ->
            ignore (Util.attach ~parent:sid "dataflow.safety" safety);
            Lcm_edge.analyze ~scratch:arena g)
      in
      let spec = Util.timed ~parent "core.spec" (fun _ -> Lcm_edge.spec g a) in
      let g', _ = Util.timed ~parent "core.apply" (fun _ -> Transform.apply g spec) in
      let program = Util.timed ~parent "frontend.print" (fun _ -> Cfg.to_string g') in
      let before = Metrics.static_counts g and after = Metrics.static_counts g' in
      ignore (Util.timed ~parent "server.render" (fun _ -> render ~program ~before ~after)))

let replay_run ~parent (r : Protocol.run_request) =
  let fe = Option.get (Frontend.find r.Protocol.format) in
  let g =
    Util.timed ~parent ("frontend.parse_" ^ fe.Frontend.name) (fun _ ->
        match Frontend.parse_one fe r.Protocol.program with
        | Ok g -> g
        | Error _ -> failwith "replay: program did not parse")
  in
  replay_solve ~parent g

(* In-process replay of a request answered by a server: parse + execute
   on [cfg], the span tree under [root], and the server round trip [rt]
   split into what the process did and what the pipe cost. *)
let replay_server ~root ~rt cfg frame ~layers =
  let r, p = Util.duration (fun () -> parse_request frame) in
  let _, e = Util.duration (fun () -> execute cfg r) in
  ignore (Util.attach ~parent:root "server.pipe" (rt -. p -. e));
  ignore (Util.attach ~parent:root "server.parse_request" p);
  let esid = Util.attach ~parent:root "server.execute" e in
  layers ~parent:esid r

(* Exact counts of one solve: visits, sweeps, insertions, deletions. *)
type counts = { mutable visits : int; mutable sweeps : int; mutable ins : int; mutable del : int }

let counts () = { visits = 0; sweeps = 0; ins = 0; del = 0 }

let count_solve c g (a : Lcm_edge.analysis) =
  let _, rep = Transform.apply g (Lcm_edge.spec g a) in
  c.visits <- c.visits + a.Lcm_edge.visits;
  c.sweeps <- c.sweeps + a.Lcm_edge.sweeps;
  c.ins <- c.ins + rep.Transform.num_edge_insertions;
  c.del <- c.del + rep.Transform.num_deletions

let exact_metrics c =
  [
    ("dataflow.visits", float_of_int c.visits);
    ("dataflow.sweeps", float_of_int c.sweeps);
    ("core.insertions", float_of_int c.ins);
    ("core.deletions", float_of_int c.del);
  ]

let gc_metrics (a, mi, ma) =
  [ ("server.alloc_words_per_req", a); ("server.gc_minor_per_req", mi); ("server.gc_major_per_req", ma) ]

(* Report every per-layer metric; layers this workload does not exercise
   read 0.  [extra] supplies the metrics not taken from span self times. *)
let ledger ~untraced_p50 ~extra =
  let self = Util.self_times () in
  let roots = Util.durations "request" in
  let total = List.fold_left ( +. ) 0. roots in
  let nreq = List.length roots in
  let residue =
    List.fold_left
      (fun acc n -> acc +. Option.fold ~none:0. ~some:fst (Hashtbl.find_opt self n))
      0. unattributed
  in
  let mean_self name =
    match Hashtbl.find_opt self name with Some (s, n) when n > 0 -> ms s /. float_of_int n | _ -> 0.
  in
  let traced_p50 = Util.median roots in
  note "ledger: %d traced requests, named layers cover %.1f%% of traced request time" nreq
    (100. *. (1. -. (residue /. Float.max total 1e-12)));
  note "tracing overhead: traced p50 %.3f ms - untraced p50 %.3f ms" (ms traced_p50) (ms untraced_p50);
  List.iter
    (fun (name, unit) ->
      let v =
        match List.assoc_opt name extra with
        | Some v -> v
        | None ->
          (match name with
          | "unattributed_ms" -> ms residue /. float_of_int (max 1 nreq)
          | "trace.overhead_ms" -> ms (traced_p50 -. untraced_p50)
          | "server.execute_ms" ->
            Util.mean (List.map ms (Util.durations "server.execute"))
          | _ when String.ends_with ~suffix:"_ms" name ->
            mean_self (String.sub name 0 (String.length name - 3))
          | _ -> 0.)
      in
      metric name unit v)
    per_layer_names

(* ---- cross-route identity ----

   One program must come back byte-identical in process, through a plain
   daemon and through a one-shard fleet. *)
let cross_route ~seed ?daemon ?fleet cfg =
  let g = Gen.graph ~seed:(Gen.program_seed ~seed 999_999) ~blocks:100 in
  let frame = Gen.run_frame ~id:1 ~format:"cfg" (Cfg.to_string g) in
  let via proc spawn =
    match proc with
    | Some p -> Proc.call p frame
    | None ->
      let p = spawn () in
      Fun.protect ~finally:(fun () -> Proc.stop p) (fun () -> Proc.call p frame)
  in
  let outs =
    List.map Oracle.program_of_response
      [ serve cfg frame; via daemon Proc.daemon; via fleet Proc.fleet ]
  in
  let same =
    match outs with
    | [ Some a; Some b; Some c ] -> String.equal a b && String.equal b c
    | _ -> false
  in
  note "cross-route identity (in process, daemon, fleet): %s" (if same then "ok" else "MISMATCH");
  tally ~n:1 ~ok:(if same then 1 else 0)

(* ---- solve-large ---- *)

let solve_large ~seed ~seconds ~trace =
  let n = 48 and blocks = 2500 in
  let progs =
    Array.init n (fun j ->
        let g = Gen.graph ~seed:(Gen.program_seed ~seed j) ~blocks in
        Gen.run_frame ~id:j ~format:"cfg" (Cfg.to_string g))
  in
  let warm =
    List.init 2 (fun k ->
        Gen.run_frame ~id:0 ~format:"cfg"
          (Cfg.to_string (Gen.graph ~seed:(Gen.program_seed ~seed (n + k)) ~blocks)))
  in
  let cfg, setup_s =
    setup ~release:ignore (fun () ->
        let cfg = engine () in
        List.iter (fun w -> ignore (serve cfg w)) warm;
        cfg)
  in
  (* The first response to each program is kept for the oracle; repeats
     keep a digest and must match it byte for byte. *)
  let first = Array.make n "" and repeats = ref [] in
  let keep i resp =
    if i < n then first.(i) <- resp else repeats := (i mod n, Digest.string resp) :: !repeats
  in
  let plain i =
    let resp, l = Util.duration (fun () -> serve cfg progs.(i mod n)) in
    keep i resp;
    l
  in
  let verify () =
    let ratios = Oracle.ratios () in
    let envs = Gen.envs ~seed in
    let ok = ref 0 and sent = ref 0 in
    Array.iteri
      (fun j resp ->
        if resp <> "" then begin
          incr sent;
          let g = Gen.graph ~seed:(Gen.program_seed ~seed j) ~blocks in
          match Oracle.program_of_response resp with
          | Some p when Oracle.check ~envs ~ratios g p -> incr ok
          | _ -> ()
        end)
      first;
    let rep_ok =
      List.length (List.filter (fun (j, d) -> Digest.equal d (Digest.string first.(j))) !repeats)
    in
    tally ~n:(!sent + List.length !repeats) ~ok:(!ok + rep_ok);
    cross_route ~seed cfg;
    ratios
  in
  if not trace then begin
    let samples, wall = closed_loop ~seconds ~min_requests:n ~max_requests:max_int plain in
    let rss = Util.vm_hwm_mb 0 in
    latency_metrics ~setup_s ~samples ~wall;
    quality_metrics ~rss (verify ())
  end
  else begin
    let traced i =
      let frame = progs.(i mod n) in
      let exec = ref (-1) in
      let (r, resp), _, _ =
        root_span (fun root ->
            let r = Util.timed ~parent:root "server.parse_request" (fun _ -> parse_request frame) in
            let resp =
              Util.timed ~parent:root "server.execute" (fun sid ->
                  exec := sid;
                  execute cfg r)
            in
            (r, resp))
      in
      keep i resp;
      replay_run ~parent:!exec (run_of r)
    in
    let gc, untraced =
      traced_run ~seconds ~max_requests:max_int ~gc:gc_counts ~plain ~traced
    in
    let c = counts () in
    Array.iter
      (fun frame ->
        let g = Gen.parse_cfg (run_of (parse_request frame)).Protocol.program in
        count_solve c g (Lcm_edge.analyze g))
      progs;
    ignore (verify ());
    ledger ~untraced_p50:(Util.median untraced) ~extra:(exact_metrics c @ gc_metrics gc)
  end

(* ---- fleet-small ---- *)

type entry = { eseed : int; frame : string }

let fleet_small ~seed ~seconds ~trace =
  let blocks = 100 and working = 16 in
  let rng = Prng.of_int (seed lxor 0xf1ee7) in
  let entry ~id ~format s =
    let g = Gen.graph ~seed:s ~blocks in
    let fe = Option.get (Frontend.find format) in
    { eseed = s; frame = Gen.run_frame ~id ~format (fe.Frontend.print g) }
  in
  (* The working set: every graph both as CFG text and as Bril. *)
  let ws =
    Array.init (2 * working) (fun k ->
        entry ~id:k ~format:(if k mod 2 = 0 then "cfg" else "bril") (Gen.program_seed ~seed (k / 2)))
  in
  (* The schedule: three requests in four repeat the working set (cache
     hits), one is a fresh program (a miss), one fresh program in five
     sent as Bril. *)
  let max_requests = int_of_float (seconds *. 1600.) + 400 in
  let fresh = ref [] and nfresh = ref 0 in
  let schedule =
    Array.init max_requests (fun _ ->
        if Prng.chance rng ~num:3 ~den:4 then Prng.int rng (2 * working)
        else begin
          let k = 2 * working + !nfresh in
          let format = if Prng.chance rng ~num:1 ~den:5 then "bril" else "cfg" in
          fresh := entry ~id:k ~format (Gen.program_seed ~seed (working + !nfresh)) :: !fresh;
          incr nfresh;
          k
        end)
  in
  let entries = Array.append ws (Array.of_list (List.rev !fresh)) in
  fresh := [];
  (* Responses are kept once per entry and distinct text, with a count:
     a hit differs from its entry's miss only by the [cache] field. *)
  let outputs = Hashtbl.create 8192 in
  let record k resp =
    let key = (k, Digest.string resp) in
    let _, n = Option.value (Hashtbl.find_opt outputs key) ~default:(resp, 0) in
    Hashtbl.replace outputs key (resp, n + 1)
  in
  let fleet, setup_s =
    setup ~release:Proc.stop (fun () ->
        Hashtbl.reset outputs;
        let f = Proc.fleet () in
        Proc.ping f;
        Array.iteri (fun k e -> record k (Proc.call f e.frame)) ws;
        f)
  in
  let cache_hit resp = String.ends_with ~suffix:{|"cache":"hit"}|} resp in
  let hits = ref [] in
  let exact_prefix = 200 in
  let plain i =
    let k = schedule.(i) in
    let resp, l = Util.duration (fun () -> Proc.call fleet entries.(k).frame) in
    record k resp;
    hits := cache_hit resp :: !hits;
    l
  in
  (* Every distinct output is checked, and every repeat must equal it;
     the ratios are taken over the distinct entries of the schedule's
     exact prefix. *)
  let verify () =
    let envs = Gen.envs ~seed in
    let ratios = Oracle.ratios () in
    let in_prefix = Hashtbl.create 256 in
    Array.iteri (fun i k -> if i < exact_prefix then Hashtbl.replace in_prefix k ()) schedule;
    let by_entry = Hashtbl.create 4096 in
    Hashtbl.iter
      (fun (k, _) (resp, n) ->
        Hashtbl.replace by_entry k
          ((Oracle.program_of_response resp, n) :: Option.value (Hashtbl.find_opt by_entry k) ~default:[]))
      outputs;
    let ok = ref 0 and n = ref 0 in
    Hashtbl.iter
      (fun k outs ->
        n := List.fold_left (fun acc (_, c) -> acc + c) !n outs;
        match outs with
        | (Some p, _) :: _ ->
          let g = Gen.graph ~seed:entries.(k).eseed ~blocks in
          let ratios = if Hashtbl.mem in_prefix k then Some ratios else None in
          if Oracle.check ~envs ?ratios g p then
            ok := List.fold_left (fun acc (o, c) -> if o = Some p then acc + c else acc) !ok outs
        | _ -> ())
      by_entry;
    tally ~n:!n ~ok:!ok;
    ratios
  in
  let cfg = engine () in
  if not trace then begin
    let samples, wall = closed_loop ~seconds ~min_requests:exact_prefix ~max_requests plain in
    let rss = Proc.peak_rss_mb fleet in
    latency_metrics ~setup_s ~samples ~wall;
    let hit = Array.of_list (List.rev !hits) in
    let split h = Util.sorted_of_list (List.filteri (fun i _ -> hit.(i) = h) (latencies samples)) in
    let hits = split true and misses = split false in
    note "cache hits: %d, p50 %.3f ms; misses: %d, p50 %.3f ms, p90 %.3f ms" (Array.length hits)
      (ms (Util.quantile hits 0.5)) (Array.length misses) (ms (Util.quantile misses 0.5))
      (ms (Util.quantile misses 0.9));
    let ratios =
      Fun.protect ~finally:(fun () -> Proc.stop fleet) (fun () ->
          let r = verify () in
          cross_route ~seed ~fleet cfg;
          r)
    in
    quality_metrics ~rss ratios
  end
  else begin
    let daemon = Proc.daemon () in
    Proc.ping daemon;
    Fun.protect
      ~finally:(fun () ->
        Proc.stop daemon;
        Proc.stop fleet)
      (fun () ->
        let router_counts () =
          let s = Proc.stats fleet in
          ( Proc.counter s "cache.hits_total",
            Proc.counter s "cache.misses_total",
            Proc.counter s "shard.digest_memo_hits_total" )
        in
        let h0, m0, memo0 = router_counts () in
        (* A miss is replayed on a plain daemon and in process: the
           router's share is the fleet round trip minus the daemon's. *)
        let traced i =
          let k = schedule.(i) in
          let frame = entries.(k).frame in
          let resp, root, rt = root_span (fun _ -> Proc.call fleet frame) in
          record k resp;
          if cache_hit resp then ignore (Util.attach ~parent:root "shard.hit" rt)
          else begin
            let _, d = Util.duration (fun () -> Proc.call daemon frame) in
            ignore (Util.attach ~parent:root "shard.router" (rt -. d));
            replay_server ~root ~rt:d cfg frame ~layers:(fun ~parent r ->
                replay_run ~parent (run_of r))
          end
        in
        let gc, untraced =
          traced_run ~seconds ~max_requests ~gc:(server_gc_counts fleet) ~plain ~traced
        in
        let h1, m1, memo1 = router_counts () in
        let c = counts () in
        Array.iteri
          (fun i k ->
            if i < exact_prefix then begin
              let r = run_of (parse_request entries.(k).frame) in
              let fe = Option.get (Frontend.find r.Protocol.format) in
              match Frontend.parse_one fe r.Protocol.program with
              | Ok g -> count_solve c g (Lcm_edge.analyze g)
              | Error _ -> failwith "exact pass: program did not parse"
            end)
          schedule;
        ignore (verify ());
        (* Every run request is one memo lookup and one cache lookup. *)
        let lookups = float_of_int (max 1 (h1 - h0 + m1 - m0)) in
        ledger ~untraced_p50:(Util.median untraced)
          ~extra:
            (exact_metrics c @ gc_metrics gc
            @ [
                ("shard.cache_hit_ratio", float_of_int (h1 - h0) /. lookups);
                ("shard.memo_hit_ratio", float_of_int (memo1 - memo0) /. lookups);
              ]))
  end

(* ---- edit-delta ---- *)

let delta_frame ~id ~handle (s : Gen.step) =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int id);
         ("op", Json.String "delta");
         ("handle", Json.String handle);
         ("edits", s.Gen.edits);
       ])

let retain call text =
  let resp = call (Gen.run_frame ~retain:true ~id:0 ~format:"cfg" text) in
  let j = Json.parse resp in
  match (Json.member "handle" j, Json.member "retained_program" j) with
  | Some (Json.String h), Some (Json.String p) -> (h, p)
  | _ -> failwith ("retain failed: " ^ resp)

type timer = { time : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { time = (fun _ f -> f ()) }

(* One step of a retained graph on the benchmark's own side: patch a copy,
   re-solve incrementally (or from scratch when the capture no longer
   applies), as the engine does.  [timer] wraps each layer call. *)
let delta_step ?(timer = untimed) (g0, saved0) patch =
  let g = Cfg.copy g0 in
  let dirty = timer.time "cfg.patch" (fun () -> Patch.apply g patch) in
  ignore (timer.time "cfg.candidate_pool" (fun () -> Cfg.candidate_pool g));
  match timer.time "core.analyze_incr" (fun () -> Lcm_edge.analyze_incr g ~prev:saved0 ~dirty) with
  | Some (a, saved, region) -> (g, a, saved, Some region)
  | None ->
    let a, saved = timer.time "core.analyze" (fun () -> Lcm_edge.analyze_keep g) in
    (g, a, saved, None)

let edit_delta ~seed ~seconds ~trace =
  let blocks = 1000 in
  let base_text = Cfg.to_string (Gen.graph ~seed:(Gen.program_seed ~seed 0) ~blocks) in
  let steps = int_of_float (seconds *. 150.) + 200 in
  let chain = Array.of_list (Gen.chain ~seed ~steps (Gen.parse_cfg base_text)) in
  let warm_text = Cfg.to_string (Gen.graph ~seed:(Gen.program_seed ~seed 1) ~blocks:200) in
  let warm_chain = Gen.chain ~seed:(seed + 1) ~steps:5 (Gen.parse_cfg warm_text) in
  let daemon, setup_s =
    setup ~release:Proc.stop (fun () ->
        let d = Proc.daemon () in
        Proc.ping d;
        let h, _ = retain (Proc.call d) warm_text in
        List.iteri (fun i s -> ignore (Proc.call d (delta_frame ~id:i ~handle:h s))) warm_chain;
        d)
  in
  let handle, echoed = retain (Proc.call daemon) base_text in
  let canonical = Cfg.to_string (Gen.parse_cfg base_text) in
  tally ~n:1 ~ok:(if String.equal echoed canonical then 1 else 0);
  let frames = Array.mapi (fun i s -> delta_frame ~id:(i + 1) ~handle s) chain in
  let responses = ref [] in
  let exact_prefix = 200 in
  let call i =
    let resp, l = Util.duration (fun () -> Proc.call daemon frames.(i)) in
    responses := resp :: !responses;
    l
  in
  let base () =
    let g = Gen.parse_cfg base_text in
    (g, snd (Lcm_edge.analyze_keep g))
  in
  let verify () =
    let envs = Gen.envs ~seed in
    let ratios = Oracle.ratios () in
    let g = Gen.parse_cfg base_text in
    let ok = ref 0 in
    List.iteri
      (fun i resp ->
        ignore (Patch.apply g chain.(i).Gen.patch);
        let ratios = if i < exact_prefix then Some ratios else None in
        match Oracle.program_of_response resp with
        | Some p when Oracle.check ~envs ?ratios g p -> incr ok
        | _ -> ())
      (List.rev !responses);
    tally ~n:(List.length !responses) ~ok:!ok;
    ratios
  in
  if not trace then begin
    let samples, wall = closed_loop ~seconds ~min_requests:exact_prefix ~max_requests:steps call in
    let rss = Proc.peak_rss_mb daemon in
    latency_metrics ~setup_s ~samples ~wall;
    let ratios =
      Fun.protect ~finally:(fun () -> Proc.stop daemon) (fun () ->
          let r = verify () in
          cross_route ~seed ~daemon (engine ());
          r)
    in
    quality_metrics ~rss ratios
  end
  else
    Fun.protect ~finally:(fun () -> Proc.stop daemon) (fun () ->
        (* An in-process engine and the benchmark's own mirror follow the
           daemon's handle step for step, outside any timing. *)
        let cfg = engine () in
        let ihandle, _ = retain (serve cfg) base_text in
        let iframes = Array.mapi (fun i s -> delta_frame ~id:(i + 1) ~handle:ihandle s) chain in
        let mirror = ref (base ()) in
        let advance ?timer i =
          let g, a, saved, _ = delta_step ?timer !mirror chain.(i).Gen.patch in
          mirror := (g, saved);
          (g, a)
        in
        let plain i =
          let l = call i in
          ignore (serve cfg iframes.(i));
          ignore (advance i);
          l
        in
        let traced i =
          let _, root, rt = root_span (fun _ -> call i) in
          replay_server ~root ~rt cfg iframes.(i) ~layers:(fun ~parent _ ->
              let timer = { time = (fun name f -> Util.timed ~parent name (fun _ -> f ())) } in
              let g, a = advance ~timer i in
              let spec = timer.time "core.spec" (fun () -> Lcm_edge.spec g a) in
              let g', _ = timer.time "core.apply" (fun () -> Transform.apply g spec) in
              let program = timer.time "frontend.print" (fun () -> Cfg.to_string g') in
              let before = Metrics.static_counts g and after = Metrics.static_counts g' in
              ignore (timer.time "server.render" (fun () -> render ~program ~before ~after)))
        in
        let gc, untraced =
          traced_run ~seconds ~max_requests:steps ~gc:(server_gc_counts daemon) ~plain ~traced
        in
        (* Exact counts over the chain's fixed prefix, from the base. *)
        let c = counts () in
        let region = ref 0 and incremental = ref 0 and fallbacks = ref 0 in
        let state = ref (base ()) in
        for i = 0 to exact_prefix - 1 do
          let g, a, saved, r = delta_step !state chain.(i).Gen.patch in
          (match r with
          | Some r ->
            incr incremental;
            region := !region + r
          | None -> incr fallbacks);
          count_solve c g a;
          state := (g, saved)
        done;
        ignore (verify ());
        ledger ~untraced_p50:(Util.median untraced)
          ~extra:
            (exact_metrics c @ gc_metrics gc
            @ [
                ("core.incr_region_blocks", float_of_int !region /. float_of_int (max 1 !incremental));
                ("core.incr_fallbacks", float_of_int !fallbacks);
              ]))

(* ---- main ---- *)

let workloads = [ ("solve-large", solve_large); ("fleet-small", fleet_small); ("edit-delta", edit_delta) ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of solve-large, fleet-small, edit-delta");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer ledger (1)");
      ("--lcmopt", Arg.Set_string Proc.lcmopt, "PATH the lcmopt executable");
      ("--out", Arg.Set_string out, "DIR where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --lcmopt PATH [--out DIR]";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  note "host: %s"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) (Util.fingerprint ())));
  note "workload %s, seed %d, %.1f s, trace %d" !workload !seed !seconds !trace;
  run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1);
  if !trace = 1 && !out <> "" then
    Util.write_spans
      (Filename.concat !out (Printf.sprintf "%s-seed%d.spans.jsonl" !workload !seed))
      ~header:
        (Json.to_string
           (Json.Obj
              (("workload", Json.String !workload)
              :: ("seed", Json.Int !seed)
              :: List.map (fun (k, v) -> (k, Json.String v)) (Util.fingerprint ()))));
  let metrics = List.rev res.metrics in
  List.iter (fun (name, v, unit) -> note "  %-28s %14.6f %s" name v unit) metrics;
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let correct = res.failed = 0 && res.attempted > 0 && finite in
  note "checked %d outputs, %d failed" res.attempted res.failed;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    res.attempted res.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (if Float.is_finite v then json_number v else "null") unit)
          metrics));
  exit (if correct then 0 else 1)
