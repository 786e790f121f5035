(* Order statistics over measured samples. *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. *)
let rank ~n p = max 1 (min n (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))))

let percentile a p =
  let n = Array.length a in
  if n = 0 then nan else (sorted a).(rank ~n p - 1)

let median a = percentile a 50.0
let beyond ~n p = n - rank ~n p

(* The tail percentiles a run may fall back to, highest first. *)
let tail_candidates = [ 99.0; 90.0; 50.0 ]

let tail_percentile ~n =
  match List.find_opt (fun p -> beyond ~n p >= 10) tail_candidates with
  | Some p -> p
  | None -> 50.0

(* Consecutive samples a window needs for [p] to have ten beyond it. *)
let window_for p = int_of_float (Float.ceil ((10.0 /. (1.0 -. (p /. 100.0))) -. 1e-9))

(* The tail a run reports: the workload's declared percentile, lowered to
   the highest one with at least ten samples beyond it when the run holds
   too few samples for it.  A run holding two or more windows' worth takes
   the percentile per window of consecutive samples and reports the median
   over windows, so one stall of the host moves one window rather than the
   run.  Returns the percentile, the value, the samples beyond it per
   window, and the window count. *)
let tail ~declared a =
  let n = Array.length a in
  let p = Float.min declared (tail_percentile ~n) in
  let w = window_for p in
  let k = n / w in
  if k < 2 then (p, percentile a p, beyond ~n p, 1)
  else (p, median (Array.init k (fun i -> percentile (Array.sub a (i * w) w) p)), beyond ~n:w p, k)

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)
