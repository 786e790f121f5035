(* The workloads.  Each runs against the library's public serving API
   with the compiled engine at O3, and either measures the end-to-end
   metrics with tracing off ([--trace 0]) or replays the same seeded
   requests through the traced per-layer phases ([--trace 1]).  Both kinds
   check every output they can against a bitwise reference, and both
   replay a seeded subset on the interpreter at O0 (the oracle). *)

module S = Serving.Server
module F = Serving.Frontend
module W = Serving.Workload
module St = Serving.Stream

let process_start = Host.now ()

type cfg = { seed : int; seconds : float; trace : bool }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let info fmt = Printf.printf ("perfbench: " ^^ fmt ^^ "\n%!")
let o3 () = S.create ~engine:`Compiled ~opt:Ir.Optimize.O3 ()
let oracle_server () = S.create ~engine:`Interp ~opt:Ir.Optimize.O0 ()
let key lens = String.concat "," (Array.to_list (Array.map string_of_int lens))
let bits = Int64.bits_of_float

let cold_reset () =
  S.reset_caches ();
  Runtime.Buffer.Arena.clear Runtime.Buffer.Arena.global

(* A pool of [size] shapes spanning the workload's length distribution: the
   seed draws [256 * size] candidates and the pool takes them at fixed
   quantiles of [cost].  Every seed then gives a pool of similar total
   work, so seeds change the inputs without changing what is measured. *)
let pool ~seed ~size ~cost (w : W.t) =
  let cands = (St.generate ~workload:w ~pool:(256 * size) ~n:0 ~seed ()).St.shapes in
  let ranked = Array.map (fun s -> (cost s, s)) cands in
  Array.stable_sort (fun (a, _) (b, _) -> compare a b) ranked;
  let n = Array.length ranked in
  Array.init size (fun i -> snd ranked.((((2 * i) + 1) * n) / (2 * size)))

(* The encoder's cost proxy: per row, the attention terms grow as l^2 and
   the projections as l, in a ratio fitted to measured request times. *)
let encoder_cost a = Array.fold_left (fun acc l -> acc + (l * (l + 64))) 0 a

(* The set-up of one run, repeated after a full cache reset — at least
   [min_setups] times, and up to [max_setups] while the repetitions so far
   took under [setup_budget_s] — with the first timed from process start.
   Returns the median and the last repetition's value (the state the timed
   region uses); [dispose] releases an earlier repetition's value. *)
let min_setups = 3
let max_setups = 25
let setup_budget_s = 3.0

let setup ?(dispose = ignore) f =
  let times = ref [] and last = ref None and spent = ref 0.0 in
  while
    List.length !times < min_setups || (List.length !times < max_setups && !spent < setup_budget_s)
  do
    Option.iter dispose !last;
    let t0 = if !times = [] then process_start else (cold_reset (); Host.now ()) in
    let v = f () in
    let dt = Host.now () -. t0 in
    spent := !spent +. dt;
    times := dt :: !times;
    last := Some v
  done;
  let times = Array.of_list (List.rev !times) in
  info "setup_s samples: %s"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") times)));
  (Stats.median times, Option.get !last)

(* {2 Output checks} *)

(* Reference checksum bits per shape, taken from the first compiled-engine
   response; every later response of the shape must match bitwise, and the
   oracle confirms the references of a seeded subset. *)
type refs = { tbl : (string, int array * int64) Hashtbl.t; mutable mismatched : int }

let refs () = { tbl = Hashtbl.create 64; mismatched = 0 }

let check refs lens (r : S.response) =
  let k = key lens in
  match Hashtbl.find_opt refs.tbl k with
  | None ->
      Hashtbl.add refs.tbl k (lens, bits r.S.checksum);
      true
  | Some (_, b) ->
      let ok = b = bits r.S.checksum in
      if not ok then refs.mismatched <- refs.mismatched + 1;
      ok

(* Whether the request was served at all.  A served answer is checked too,
   but a wrong one is counted in [refs.mismatched], not here. *)
let served_ok refs lens = function
  | F.Response r ->
      ignore (check refs lens r);
      true
  | _ -> false

(* Replay [subset] on the interpreter at O0 and compare with the
   references.  Returns the shapes whose reference disagrees, and the
   oracle's flop count per shape (from the interpreter's counters). *)
let oracle refs (w : W.t) subset =
  let srv = oracle_server () in
  let t0 = Host.now () in
  let replay (bad, flops) lens =
    let r = S.handle srv w lens in
    let f =
      match r.S.counters with
      | Some cs -> float_of_int (Option.value (List.assoc_opt "flops" cs) ~default:0)
      | None -> 0.0
    in
    let ok = Option.map snd (Hashtbl.find_opt refs.tbl (key lens)) = Some (bits r.S.checksum) in
    ((if ok then bad else key lens :: bad), (lens, f) :: flops)
  in
  let bad, flops = List.fold_left replay ([], []) subset in
  info "oracle: %d shapes replayed on the interpreter at O0 in %.3f s, %d disagree"
    (List.length subset) (Host.now () -. t0) (List.length bad);
  (bad, flops)

let choose_subset ~seed ~k (shapes : int array array) =
  let rng = Workloads.Rng.create (Arrivals.derive seed 99) in
  let n = Array.length shapes in
  if n <= k then Array.to_list shapes
  else
    let idx = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Workloads.Rng.int rng (i + 1) in
      let t = idx.(i) in
      idx.(i) <- idx.(j);
      idx.(j) <- t
    done;
    List.init k (fun i -> shapes.(idx.(i)))

(* Every request of a shape the oracle rejected counts as failed. *)
let oracle_failures bad count_of = List.fold_left (fun acc k -> acc + count_of k) 0 bad

(* The run's p90, with a detail line giving its sample and window counts. *)
let p90_of lat =
  let p, v, beyond, windows = Stats.tail ~declared:90.0 lat in
  info "latency_p90_ms: p%g over %d samples, median of %d window(s) with %d beyond each = %.4f ms" p
    (Array.length lat) windows beyond v;
  v

(* {2 Per-layer phases shared by every workload} *)

type phase_a = {
  handle_us : float array;
  resps : S.response array;
  job_hits : int;
  job_misses : int;
  delta_updated : int;
}

let counter name = Obs.Metrics.value (Obs.Metrics.counter name)

(* Phase A: untraced serial [Server.handle] over the requests [units], for
   at most [budget] seconds (at least [min_units]). *)
let phase_a srv (w : W.t) refs (units : int array array) ~budget ~min_units =
  let js0 = Cora.Cache.stats w.W.job_cache and d0 = counter "prelude.tables_delta_updated" in
  let t_end = Host.now () +. budget in
  let hs = ref [] and rs = ref [] in
  let i = ref 0 in
  while !i < Array.length units && (!i < min_units || Host.now () < t_end) do
    let lens = units.(!i) in
    let t0 = Host.now () in
    let r = S.handle srv w lens in
    hs := ((Host.now () -. t0) *. 1e6) :: !hs;
    rs := r :: !rs;
    ignore (check refs lens r);
    incr i
  done;
  let js1 = Cora.Cache.stats w.W.job_cache in
  {
    handle_us = Array.of_list (List.rev !hs);
    resps = Array.of_list (List.rev !rs);
    job_hits = js1.Cora.Cache.hits - js0.Cora.Cache.hits;
    job_misses = js1.Cora.Cache.misses - js0.Cora.Cache.misses;
    delta_updated = counter "prelude.tables_delta_updated" - d0;
  }

(* Phase B: the same units with span recording on — [Server.handle] timed
   again (the trace overhead), then the benchmark-side layer replay, whose
   output must equal the served one bitwise; for at most [budget] seconds
   (at least [min_units]).  [prev_of i layers] gives unit [i]'s predecessor
   prelude, if any. *)
let phase_b srv (w : W.t) refs (units : int array array) ~budget ~min_units ~prev_of =
  let n = Array.length units in
  Obs.Trace_sink.clear ();
  Obs.Span.set_enabled true;
  let handle_us = Array.make n 0.0 and layers = Array.make n None in
  let t_end = Host.now () +. budget in
  let i = ref 0 in
  Fun.protect ~finally:(fun () -> Obs.Span.set_enabled false) (fun () ->
      while !i < n && (!i < min_units || Host.now () < t_end) do
        let lens = units.(!i) in
        let t0 = Host.now () in
        let r = S.handle srv w lens in
        handle_us.(!i) <- (Host.now () -. t0) *. 1e6;
        let m = Mirror.run ?prev:(prev_of !i layers) srv w lens in
        if bits m.Mirror.checksum <> bits r.S.checksum then refs.mismatched <- refs.mismatched + 1;
        layers.(!i) <- Some m;
        incr i
      done);
  (Array.sub handle_us 0 !i, Array.map Option.get (Array.sub layers 0 !i))

let frac num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
let med_of f a = Stats.median (Array.map f a)

(* Microkernel selections since the last metrics reset: the specialized
   variants, and the generic fallbacks. *)
let variant_counts () =
  let prefix = "engine.mk_variant." in
  List.fold_left
    (fun (spec, gen) (name, snap) ->
      match snap with
      | Obs.Metrics.Counter_v c when String.starts_with ~prefix name ->
          info "%s = %d" name c;
          if String.ends_with ~suffix:".generic" name then (spec, gen + c) else (spec + c, gen)
      | _ -> (spec, gen))
    (0, 0) (Obs.Metrics.dump ())

(* The per-layer values every workload reports from phases A and B, the
   cold costs and the oracle.  Workload-specific layers (front end,
   batcher, generator) come in [extra]. *)
let layer_values ~(a : phase_a) ~b_handle ~(b : Mirror.t array) ~cold ~variants ~flops ~peak
    ~extra =
  let stage name (r : S.response) =
    Option.value (List.assoc_opt name r.S.stages_us) ~default:0.0
  in
  let stage_mean name = Stats.mean (Array.map (stage name) a.resps) in
  let stages = [ "compile"; "prelude"; "launch"; "execute" ] in
  let residual =
    Stats.mean
      (Array.mapi
         (fun i r -> a.handle_us.(i) -. List.fold_left (fun acc s -> acc +. stage s r) 0.0 stages)
         a.resps)
  in
  let tot f = Array.fold_left (fun acc r -> acc + f r) 0 a.resps in
  let hit_frac hits misses = frac (tot hits) (tot (fun r -> hits r + misses r)) in
  let kernel_times (m : Mirror.t) = List.map snd m.Mirror.kernel_us in
  let ksum m = List.fold_left ( +. ) 0.0 (kernel_times m) in
  let kmax m = List.fold_left Float.max 0.0 (kernel_times m) in
  let kernel_med kname =
    med_of
      (fun (m : Mirror.t) -> Option.value (List.assoc_opt kname m.Mirror.kernel_us) ~default:0.0)
      b
  in
  (* per-kernel detail: median time of each kernel name *)
  (match b with
  | [||] -> ()
  | _ ->
      List.iter
        (fun (kname, _) ->
          info "engine.kernel_us.%s = %.3f" kname (kernel_med kname))
        b.(0).Mirror.kernel_us);
  let measured_ms = med_of ksum b /. 1e3 in
  let model_ms = med_of (fun (r : S.response) -> r.S.kernels_ns) a.resps /. 1e6 in
  let flops_total, flop_kernel_s = flops in
  let gflops = if flop_kernel_s > 0.0 then flops_total /. flop_kernel_s /. 1e9 else 0.0 in
  let spec, gen = variants in
  let lower_us, compile_us = cold in
  let deltas =
    List.filter Float.is_finite (Array.to_list (Array.map (fun m -> m.Mirror.prelude_delta_us) b))
  in
  [
    ("engine.kernel_us.sum", med_of ksum b);
    ("engine.kernel_us.max", med_of kmax b);
    ("engine.gflops", gflops);
    ("engine.peak_frac", gflops /. peak);
    ("host.peak_gflops", peak);
    ("engine.mk_variant.specialized", float_of_int spec);
    ("engine.mk_variant.generic", float_of_int gen);
    ("engine.compile_us", compile_us);
    ("lower.miss_us", lower_us);
    ("lower.memo_hit_frac", hit_frac (fun r -> r.S.compile_hits) (fun r -> r.S.compile_misses));
    ("exec.fill_us", med_of (fun m -> m.Mirror.fill_us) b);
    ("exec.run_us", med_of (fun m -> m.Mirror.run_us) b);
    ("exec.unpack_us", med_of (fun m -> m.Mirror.unpack_us) b);
    ("exec.engine_memo_hit_frac", hit_frac (fun r -> r.S.engine_hits) (fun r -> r.S.engine_misses));
    ("sig.of_stmt_us", med_of (fun m -> m.Mirror.of_stmt_us) b);
    ("sig.of_tables_us", med_of (fun m -> m.Mirror.of_tables_us) b);
    ("buffer.arena_hit_frac", hit_frac (fun r -> r.S.arena_hits) (fun r -> r.S.arena_misses));
    ("workload.build_us", med_of (fun m -> m.Mirror.build_us) b);
    ("workload.job_memo_hit_frac", frac a.job_hits (a.job_hits + a.job_misses));
    ("prelude.build_us", med_of (fun m -> m.Mirror.prelude_build_us) b);
    ("prelude.delta_us", if deltas = [] then 0.0 else Stats.median (Array.of_list deltas));
    ("prelude.tables_delta_updated", frac a.delta_updated (Array.length a.resps));
    ( "prelude_cache.hit_frac",
      hit_frac (fun r -> Bool.to_int r.S.prelude_hit) (fun r -> Bool.to_int (not r.S.prelude_hit)) );
    ("launch.pipeline_us", med_of (fun m -> m.Mirror.launch_us) b);
    ("launch.model_kernels_ms", model_ms);
    ("launch.measured_kernels_ms", measured_ms);
    ("launch.model_over_measured", if measured_ms > 0.0 then model_ms /. measured_ms else 0.0);
    ("server.handle_us", Stats.mean a.handle_us);
    ("server.compile_us", stage_mean "compile");
    ("server.prelude_us", stage_mean "prelude");
    ("server.launch_us", stage_mean "launch");
    ("server.execute_us", stage_mean "execute");
    ("server.residual_us", residual);
    ("obs.trace_overhead_frac", (Stats.median b_handle /. Stats.median a.handle_us) -. 1.0);
  ]
  @ extra

let zero_extra =
  [
    ("frontend.queue_wait_us.p50", 0.0);
    ("frontend.queue_wait_us.p99", 0.0);
    ("frontend.rejected", 0.0);
    ("batcher.plan_us", 0.0);
    ("batcher.merge_us", 0.0);
    ("batcher.split_us", 0.0);
    ("batcher.batch_size.mean", 0.0);
    ("batcher.padding_waste_frac", 0.0);
    ("batcher.form_wait_us.p50", 0.0);
  ]

let override base over =
  List.map (fun (k, v) -> (k, Option.value (List.assoc_opt k over) ~default:v)) base

(* Measured kernel time of the oracle's shapes, so the interpreter's flop
   count has a wall-clock denominator. *)
let flop_rate srv w flops =
  List.fold_left
    (fun (f, s) (lens, fl) ->
      let m = Mirror.run srv w lens in
      let ks = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 m.Mirror.kernel_us in
      (f +. fl, s +. (ks /. 1e6)))
    (0.0, 0.0) flops

let flight_records () = Array.of_list (Obs.Flight.records ())

let queue_wait_values recs =
  let qw = Array.map (fun (r : Obs.Flight.record) -> r.Obs.Flight.queue_wait_us) recs in
  [
    ("frontend.queue_wait_us.p50", Stats.percentile qw 50.0);
    ("frontend.queue_wait_us.p99", Stats.percentile qw 99.0);
  ]

let with_flight f =
  Obs.Flight.set_capacity (1 lsl 17);
  Obs.Flight.clear ();
  f ()

(* {2 Batching, measured in the traced run} *)

(* The mega-batches the batch-former would make of consecutive windows of
   [reqs], with the wall time of each [Batcher.plan] and [merge] call. *)
let batch_units (bc : Serving.Batcher.config) (bd : W.batching) reqs =
  let mb = bc.Serving.Batcher.max_batch in
  let units = ref [] and plan_us = ref [] and merge_us = ref [] in
  for wi = 0 to (Array.length reqs / mb) - 1 do
    let members = Array.sub reqs (wi * mb) mb in
    let rows = Array.map bd.W.rows members in
    let p, t =
      Mirror.time (fun () -> Serving.Batcher.plan ~tile:bc.Serving.Batcher.tile ~max_batch:mb rows)
    in
    plan_us := t :: !plan_us;
    Array.iter
      (fun (bin : Serving.Batcher.Pack.bin) ->
        let ls =
          Array.to_list (Array.map (fun j -> members.(j)) bin.Serving.Batcher.Pack.members)
        in
        let mega, t = Mirror.time (fun () -> bd.W.merge ls) in
        merge_us := t :: !merge_us;
        let local = bd.W.local_index ls in
        units := (mega, ls, fun name idx -> S.default_fill name (local name idx)) :: !units)
      p.Serving.Batcher.Pack.bins
  done;
  (Array.of_list (List.rev !units), Array.of_list !plan_us, Array.of_list !merge_us)

(* Per mega-batch in the flight records: its size, and how long its window
   stayed open collecting members (first to last member submission). *)
let batch_formation (recs : Obs.Flight.record array) =
  let by_batch = Hashtbl.create 256 in
  Array.iter
    (fun (r : Obs.Flight.record) ->
      if r.Obs.Flight.batch_id > 0 then begin
        let t = r.Obs.Flight.submitted_us in
        let id = r.Obs.Flight.batch_id in
        let lo, hi, _ = Option.value (Hashtbl.find_opt by_batch id) ~default:(t, t, 0) in
        Hashtbl.replace by_batch id (Float.min lo t, Float.max hi t, r.Obs.Flight.batch_size)
      end)
    recs;
  let batches = Array.of_seq (Hashtbl.to_seq_values by_batch) in
  ( Array.map (fun (_, _, size) -> float_of_int size) batches,
    Array.map (fun (lo, hi, _) -> hi -. lo) batches )

(* Keep [window] requests outstanding through [fe] for [seconds], so the
   worker and its batch-former never wait for work.  Returns the requests
   completed and how many of them [check] rejected. *)
let saturate ~window ~seconds ~check fe (w : W.t) (items : int array array) =
  let n = Array.length items in
  let q = Queue.create () in
  let next = ref 0 and completed = ref 0 and failed = ref 0 in
  let finish (lens, tk) =
    incr completed;
    if not (check lens (F.await tk)) then incr failed
  in
  let t0 = Host.now () in
  while Host.now () -. t0 < seconds do
    while Queue.length q < window do
      let lens = items.(!next mod n) in
      Queue.push (lens, F.submit_wait fe w lens) q;
      incr next
    done;
    finish (Queue.pop q)
  done;
  Queue.iter finish q;
  (!completed, !failed)

let queue_capacity = 4096

(* Phase D of the traced run: [Batcher.plan] and the workload's [merge]
   timed on windows of [reqs], [split] timed on the mega-batches' outputs,
   then a front end with continuous batching serving [reqs] at saturation,
   where the batches fill.  Returns the per-layer values, the requests
   served and the failures. *)
let batcher_layers srv (w : W.t) (bc : Serving.Batcher.config) ~check ~seconds reqs =
  let bd = Option.get w.W.batching in
  let megas, plan_us, merge_us = batch_units bc bd reqs in
  let split_us =
    Array.map
      (fun (mega, ls, fill) ->
        let r = S.handle ~fill srv w mega in
        snd (Mirror.time (fun () -> bd.W.split ls (Option.get r.S.out))))
      (Array.sub megas 0 (min 64 (Array.length megas)))
  in
  let act0 = counter "batcher.elems_actual" and pad0 = counter "batcher.elems_padded" in
  let rej0 = counter "frontend.rejected" in
  let fe = F.create ~domains:1 ~capacity:queue_capacity ~batching:bc srv in
  let served, failed =
    with_flight (fun () ->
        saturate ~window:(4 * bc.Serving.Batcher.max_batch) ~seconds ~check fe w reqs)
  in
  F.shutdown fe;
  let recs = flight_records () in
  let sizes, form_waits = batch_formation recs in
  let act = counter "batcher.elems_actual" - act0 in
  let pad = counter "batcher.elems_padded" - pad0 in
  ( [
      ("frontend.rejected", float_of_int (counter "frontend.rejected" - rej0));
      ("batcher.plan_us", Stats.median plan_us);
      ("batcher.merge_us", Stats.median merge_us);
      ("batcher.split_us", Stats.median split_us);
      ("batcher.batch_size.mean", Stats.mean sizes);
      ("batcher.padding_waste_frac", 1.0 -. frac act pad);
      ("batcher.form_wait_us.p50", Stats.median form_waits);
    ]
    @ queue_wait_values recs,
    served,
    failed )

(* {2 Closed-loop workloads} *)

(* One client calling [Server.handle] back to back over a seeded pool: the
   next request goes out when the previous one returns. *)
type closed = {
  c_workload : W.t;
  c_pool : int;
  c_cost : int array -> int;  (** cost proxy the pool is stratified by *)
  c_oracle : int array array -> int array list;
      (** the pool shapes (cheapest first) the oracle replays *)
  c_batching : Serving.Batcher.config option;  (** measured in the traced run's phase D *)
}

(* A run makes at least [min_samples] requests, so its p90 has ten samples
   beyond it, and no more than [max_samples]. *)
let min_samples = 110
let max_samples = 1_000_000

(* Throughput is the median over [chunks] consecutive runs of requests, so
   a stall of the host moves one chunk rather than the run. *)
let chunks = 10

let closed_loop c cfg =
  let w = c.c_workload in
  let srv = o3 () in
  let shapes = pool ~seed:cfg.seed ~size:c.c_pool ~cost:c.c_cost w in
  info "pool: %s" (String.concat " " (Array.to_list (Array.map (fun l -> "[" ^ key l ^ "]") shapes)));
  let refs = refs () in
  let warm () = Array.iter (fun lens -> ignore (check refs lens (S.handle srv w lens))) shapes in
  let picks = Arrivals.picks ~seed:cfg.seed ~pool:(Array.length shapes) ~n:100_000 in
  let request i = shapes.(picks.(i mod Array.length picks)) in
  let counts = Hashtbl.create 16 in
  let served k = Option.value (Hashtbl.find_opt counts k) ~default:0 in
  let check_served lens r =
    let k = key lens in
    Hashtbl.replace counts k (1 + served k);
    check refs lens r
  in
  let subset = c.c_oracle shapes in
  if not cfg.trace then begin
    let setup_s, () = setup warm in
    let lat = Array.make max_samples 0.0 and ends = Array.make max_samples 0.0 in
    let t0 = Host.now () in
    let i = ref 0 in
    while
      (Host.now () -. t0 < cfg.seconds || !i < min_samples)
      && Host.now () -. t0 < 4.0 *. cfg.seconds
      && !i < max_samples
    do
      let lens = request !i in
      let s = Host.now () in
      let r = S.handle srv w lens in
      let e = Host.now () in
      lat.(!i) <- (e -. s) *. 1e3;
      ends.(!i) <- e;
      ignore (check_served lens r);
      incr i
    done;
    let n = !i in
    let lat = Array.sub lat 0 n in
    let size = n / chunks in
    let rates =
      Array.init chunks (fun k ->
          let start = if k = 0 then t0 else ends.((k * size) - 1) in
          float_of_int size /. (ends.(((k + 1) * size) - 1) -. start))
    in
    let bad, _ = oracle refs w subset in
    let failed = refs.mismatched + oracle_failures bad served in
    let tail_v = p90_of lat in
    info "failed_frac %.6f (%d of %d)" (frac failed n) failed n;
    {
      correct = bad = [] && refs.mismatched = 0;
      attempted = n;
      failed;
      values =
        [
          ("setup_s", setup_s);
          ("latency_p50_ms", Stats.median lat);
          ("latency_p90_ms", tail_v);
          ("throughput_rps", Stats.median rates);
          ("peak_rss_mb", Host.peak_rss_mb ());
        ];
    }
  end
  else begin
    let peak = Host.peak_gflops () in
    Obs.Metrics.reset ();
    warm ();
    let variants = variant_counts () in
    let colds = Array.map (fun lens -> Mirror.cold srv w lens) shapes in
    let cold = (med_of fst colds, med_of snd colds) in
    let phases = if c.c_batching = None then 4.0 else 5.0 in
    let budget = cfg.seconds /. phases in
    let units = Array.init 4096 request in
    let a = phase_a srv w refs units ~budget ~min_units:8 in
    let b_handle, b =
      phase_b srv w refs (Array.sub units 0 (Array.length a.resps)) ~budget ~min_units:4
        ~prev_of:(fun _ _ -> None)
    in
    let extra, d_served, d_failed =
      match c.c_batching with
      | None -> (zero_extra, 0, 0)
      | Some bc ->
          let check lens o = served_ok refs lens o in
          let values, served, failed = batcher_layers srv w bc ~check ~seconds:budget units in
          (override zero_extra values, served, failed)
    in
    let bad, flops = oracle refs w subset in
    let flops = flop_rate srv w flops in
    let n = Array.length a.resps + Array.length b_handle + d_served in
    {
      correct = bad = [] && refs.mismatched = 0;
      attempted = n;
      failed = d_failed + refs.mismatched + (if bad = [] then 0 else n);
      values = layer_values ~a ~b_handle ~b ~cold ~variants ~flops ~peak ~extra;
    }
  end

(* The squad encoder: kernel-bound.  The interpreter takes seconds per
   request, so the oracle replays one shape: the pool's cheapest. *)
let encoder_closed =
  {
    c_workload = W.encoder ~batch:4 ~dataset:Workloads.Datasets.squad ();
    c_pool = 5;
    c_cost = encoder_cost;
    c_oracle = (fun shapes -> [ shapes.(0) ]);
    c_batching = None;
  }

(* fig1: a kernel of about a hundred scalar operations, so per-request
   overhead dominates.  The oracle replays the whole pool.  Its traced run
   also measures the batcher, at the library's default configuration. *)
let fig1_closed =
  {
    c_workload = W.fig1 ~batch:6 ~max_len:10 ();
    c_pool = 5;
    c_cost = Array.fold_left ( + ) 0;
    c_oracle = Array.to_list;
    c_batching = Some Serving.Batcher.default_config;
  }

(* {2 decode-trace} *)

(* Three tenants: deadlines of 1 s and 3 s, and none.  Generous enough that
   a healthy server never misses one, so a miss is a failure. *)
let decode_classes = [| Some 1e9; Some 3e9; None |]

(* Trace [k] of a run: eight sessions of a prefill and sixteen decode
   steps, opening in two bursts. *)
let decode_trace_of (w : W.t) ~seed k =
  St.generate_trace ~workload:w ~sessions:8 ~steps:16 ~burst:4 ~burst_gap_us:5000.0
    ~classes:decode_classes ~seed:(Arrivals.derive seed k) ()

let decode_trace cfg =
  let w = W.decode ~batch:4 ~max_src:64 () in
  let srv = o3 () in
  let refs = refs () in
  let trace = decode_trace_of w ~seed:cfg.seed in
  let warm () =
    let fe = F.create ~domains:1 ~capacity:queue_capacity srv in
    ignore (St.run_trace ~pace:1.0 fe w (trace 0));
    fe
  in
  let note (pairs : (St.event * F.outcome) array) =
    Array.fold_left
      (fun failed ((e : St.event), o) ->
        if served_ok refs e.St.lens o then failed else failed + 1)
      0 pairs
  in
  (* the oracle replays a seeded subset of the steps served *)
  let oracle_check () =
    let shapes = Array.of_seq (Seq.map fst (Hashtbl.to_seq_values refs.tbl)) in
    Array.sort compare shapes;
    oracle refs w (choose_subset ~seed:cfg.seed ~k:8 shapes)
  in
  let run_traces fe ~seconds =
    let lat = ref [] and failed = ref 0 and events = ref 0 and k = ref 1 and rates = ref [] in
    let t0 = Host.now () in
    while Host.now () -. t0 < seconds do
      let tr = trace !k in
      let t_tr = Host.now () in
      let recs, pairs =
        with_flight (fun () ->
            let pairs = St.run_trace ~pace:1.0 fe w tr in
            (flight_records (), pairs))
      in
      (* a step's latency: its queue wait plus its pipeline stages *)
      Array.iter
        (fun (r : Obs.Flight.record) ->
          let stages = List.fold_left (fun acc (_, t) -> acc +. t) 0.0 r.Obs.Flight.stages_us in
          lat := ((r.Obs.Flight.queue_wait_us +. stages) /. 1e3) :: !lat)
        recs;
      rates := (float_of_int (Array.length pairs) /. (Host.now () -. t_tr)) :: !rates;
      failed := !failed + note pairs;
      events := !events + Array.length pairs;
      incr k
    done;
    (* the median trace's step rate, so a host stall moves one trace *)
    (Array.of_list !lat, !failed, !events, Stats.median (Array.of_list !rates))
  in
  if not cfg.trace then begin
    let setup_s, fe = setup ~dispose:F.shutdown warm in
    let lat, failed, events, rate = run_traces fe ~seconds:cfg.seconds in
    F.shutdown fe;
    let bad, _ = oracle_check () in
    let tail_v = p90_of lat in
    let failed = failed + refs.mismatched + List.length bad in
    info "failed_frac %.6f (%d of %d)" (frac failed events) failed events;
    {
      correct = bad = [] && refs.mismatched = 0;
      attempted = events;
      failed;
      values =
        [
          ("setup_s", setup_s);
          ("latency_p50_ms", Stats.median lat);
          ("latency_p90_ms", tail_v);
          ("throughput_rps", rate);
          ("peak_rss_mb", Host.peak_rss_mb ());
        ];
    }
  end
  else begin
    let peak = Host.peak_gflops () in
    Obs.Metrics.reset ();
    let fe = warm () in
    let variants = variant_counts () in
    let budget = cfg.seconds /. 4.0 in
    let units_of (tr : St.trace) = Array.map (fun (e : St.event) -> e.St.lens) tr.St.events in
    let units = units_of (trace 1) in
    let colds = Array.map (fun lens -> Mirror.cold srv w lens) (Array.sub units 0 4) in
    let cold = (med_of fst colds, med_of snd colds) in
    (* a fresh trace so phase A meets every shape for the first time, as
       the served stream does *)
    cold_reset ();
    ignore (St.run_trace fe w (trace 0));
    let a = phase_a srv w refs units ~budget ~min_units:32 in
    let n = Array.length a.resps in
    (* phase B replays a fresh trace, so it too meets only unseen shapes *)
    let tr_b = trace 2 in
    let prev_of i (layers : Mirror.t option array) =
      if i = 0 then None
      else
        match tr_b.St.events.(i).St.phase with
        | St.Prefill -> None
        | St.Decode _ ->
            Option.map (fun (m : Mirror.t) -> (m.Mirror.built, m.Mirror.lenv)) layers.(i - 1)
    in
    let b_handle, b = phase_b srv w refs (units_of tr_b) ~budget ~min_units:32 ~prev_of in
    let rej0 = counter "frontend.rejected" in
    let _, nfailed, events, _ = run_traces fe ~seconds:budget in
    let recs = flight_records () in
    F.shutdown fe;
    let extra =
      override zero_extra
        (("frontend.rejected", float_of_int (counter "frontend.rejected" - rej0))
        :: queue_wait_values recs)
    in
    let bad, flops = oracle_check () in
    let flops = flop_rate srv w flops in
    let total = n + Array.length b_handle + events in
    {
      correct = bad = [] && refs.mismatched = 0;
      attempted = total;
      failed = nfailed + refs.mismatched + List.length bad;
      values = layer_values ~a ~b_handle ~b ~cold ~variants ~flops ~peak ~extra;
    }
  end

let workloads =
  [
    ("encoder-closed", closed_loop encoder_closed);
    ("fig1-closed", closed_loop fig1_closed);
    ("decode-trace", decode_trace);
  ]
