(* The metric contract: every name the benchmark reports, with its unit and
   direction.  BENCHMARK.json at the repository root lists the same names
   (the test suite checks that the two agree), and [result_line] refuses to
   print a result that misses one or adds another. *)

type better = Lower | Higher
type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

(* Metrics a user of the serving system sees, measured with tracing off.
   Every workload reports all of them; see README.md for what
   [throughput_rps] means on each workload. *)
let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "latency_p50_ms" "ms" Lower;
    m "latency_p90_ms" "ms" Lower;
    m "throughput_rps" "1/s" Higher;
    m "peak_rss_mb" "MB" Lower;
  ]

(* Per-layer metrics of the traced run.  A layer a workload does not
   exercise reports 0 (e.g. [batcher.*] outside fig1-closed). *)
let per_layer =
  [
    m "engine.kernel_us.sum" "us" Lower;
    m "engine.kernel_us.max" "us" Lower;
    m "engine.gflops" "GFLOP/s" Higher;
    m "engine.peak_frac" "frac" Higher;
    m "host.peak_gflops" "GFLOP/s" Higher;
    m "engine.mk_variant.specialized" "count" Higher;
    m "engine.mk_variant.generic" "count" Lower;
    m "engine.compile_us" "us" Lower;
    m "lower.miss_us" "us" Lower;
    m "lower.memo_hit_frac" "frac" Higher;
    m "exec.fill_us" "us" Lower;
    m "exec.run_us" "us" Lower;
    m "exec.unpack_us" "us" Lower;
    m "exec.engine_memo_hit_frac" "frac" Higher;
    m "sig.of_stmt_us" "us" Lower;
    m "sig.of_tables_us" "us" Lower;
    m "buffer.arena_hit_frac" "frac" Higher;
    m "workload.build_us" "us" Lower;
    m "workload.job_memo_hit_frac" "frac" Higher;
    m "prelude.build_us" "us" Lower;
    m "prelude.delta_us" "us" Lower;
    m "prelude.tables_delta_updated" "count" Higher;
    m "prelude_cache.hit_frac" "frac" Higher;
    m "launch.pipeline_us" "us" Lower;
    m "launch.model_kernels_ms" "ms" Lower;
    m "launch.measured_kernels_ms" "ms" Lower;
    m "launch.model_over_measured" "ratio" Higher;
    m "server.handle_us" "us" Lower;
    m "server.compile_us" "us" Lower;
    m "server.prelude_us" "us" Lower;
    m "server.launch_us" "us" Lower;
    m "server.execute_us" "us" Lower;
    m "server.residual_us" "us" Lower;
    m "frontend.queue_wait_us.p50" "us" Lower;
    m "frontend.queue_wait_us.p99" "us" Lower;
    m "frontend.rejected" "count" Lower;
    m "batcher.plan_us" "us" Lower;
    m "batcher.merge_us" "us" Lower;
    m "batcher.split_us" "us" Lower;
    m "batcher.batch_size.mean" "count" Higher;
    m "batcher.padding_waste_frac" "frac" Lower;
    m "batcher.form_wait_us.p50" "us" Lower;
    m "obs.trace_overhead_frac" "frac" Lower;
  ]

let better_name = function Lower -> "lower" | Higher -> "higher"
let metrics ~trace = if trace then per_layer else end_to_end

(* A float as JSON, with all its digits. *)
let num v =
  if not (Float.is_finite v) then invalid_arg "Spec.num: non-finite metric value"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The benchmark's last output line.  [values] must name every metric of
   the run's kind exactly once and nothing else. *)
let result_line ~trace ~correct ~attempted ~failed (values : (string * float) list) =
  let specs = metrics ~trace in
  List.iter
    (fun (n, _) ->
      if not (List.exists (fun s -> s.name = n) specs) then
        invalid_arg ("Spec.result_line: unknown metric " ^ n))
    values;
  let field s =
    match List.filter (fun (n, _) -> n = s.name) values with
    | [ (_, v) ] -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" s.name (num v) s.unit_
    | [] -> invalid_arg ("Spec.result_line: missing metric " ^ s.name)
    | _ -> invalid_arg ("Spec.result_line: duplicate metric " ^ s.name)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map field specs))
