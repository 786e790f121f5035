(* Seeded request streams: which pool shape each request carries, and the
   sub-seeds of a run's phases.  Both depend only on their arguments. *)

(* Request [i] carries pool shape [picks.(i)].  Each consecutive block of
   [pool] requests is a seeded permutation of the pool, so every shape
   carries the same share of any run, and the run's percentiles fall on
   the same shapes whatever the seed. *)
let picks ~seed ~pool ~n =
  let rng = Workloads.Rng.create (seed lxor 0x5bd1e995) in
  let block = Array.init pool Fun.id in
  Array.init n (fun i ->
      let j = i mod pool in
      if j = 0 then
        for k = pool - 1 downto 1 do
          let r = Workloads.Rng.int rng (k + 1) in
          let t = block.(k) in
          block.(k) <- block.(r);
          block.(r) <- t
        done;
      block.(j))

(* Sub-seeds for the phases of one run, so no two phases share inputs. *)
let derive seed k = (seed * 1_000_003) + (k * 7919)
