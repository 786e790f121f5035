(* Host measurements the benchmark takes about itself: a scalar
   floating-point peak and the process's peak resident memory. *)

(* Seconds on the monotonic clock, with nanosecond resolution: a fig1
   request takes ~45 us, where gettimeofday's microsecond steps would
   quantize the percentiles. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Eight independent multiply-add chains over unboxed float locals — the
   scalar pipeline the engine's compiled closures run on, with enough
   chains to cover the add and multiply latencies.  Two flops per chain
   step.  The best of several trials is the peak. *)
let fp_trial iters =
  let a0 = ref 1.0 and a1 = ref 1.1 and a2 = ref 1.2 and a3 = ref 1.3 in
  let a4 = ref 1.4 and a5 = ref 1.5 and a6 = ref 1.6 and a7 = ref 1.7 in
  let m = 0.999999 and c = 1e-7 in
  let t0 = now () in
  for _ = 1 to iters do
    a0 := (!a0 *. m) +. c;
    a1 := (!a1 *. m) +. c;
    a2 := (!a2 *. m) +. c;
    a3 := (!a3 *. m) +. c;
    a4 := (!a4 *. m) +. c;
    a5 := (!a5 *. m) +. c;
    a6 := (!a6 *. m) +. c;
    a7 := (!a7 *. m) +. c
  done;
  let dt = now () -. t0 in
  (* keep the chains live *)
  if !a0 +. !a1 +. !a2 +. !a3 +. !a4 +. !a5 +. !a6 +. !a7 = 0.0 then print_string "";
  16.0 *. float_of_int iters /. dt /. 1e9

let peak_gflops () =
  List.fold_left (fun acc _ -> Float.max acc (fp_trial 10_000_000)) 0.0 [ 1; 2; 3; 4; 5 ]

(* VmHWM of /proc/self/status, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan
