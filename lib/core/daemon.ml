module Obs = Mifo_util.Obs

type config = {
  congest_threshold : float;
  clear_threshold : float;
  ramp_up : int;
  ramp_down : int;
}

let default_config =
  { congest_threshold = 0.9; clear_threshold = 0.6; ramp_up = 2; ramp_down = 1 }

let is_congested ?(config = default_config) util = util >= config.congest_threshold

let c_alt_changed = Obs.counter "daemon.alt_changed"
let c_buckets_reset = Obs.counter "daemon.buckets_reset"
let c_slots_rotated = Obs.counter "daemon.slots_rotated"
let c_ramp_up = Obs.counter "daemon.ramp_up_buckets"
let c_ramp_down = Obs.counter "daemon.ramp_down_buckets"
let h_util_out = Obs.histogram "daemon.port_util.out"
let h_util_alt = Obs.histogram "daemon.port_util.alt"

(* The least of [least] and the utilizations of [entry]'s slots [i] to
   [n - 1], as [port_utilization] returned it: a float ref would be
   boxed afresh for [Obs.observe]. *)
let rec least_util port_utilization fib entry i n least =
  if i = n then least
  else
    let u = port_utilization (Fib.alt_at fib entry i) in
    least_util port_utilization fib entry (i + 1) n (if u < least then u else least)

let epoch_ranked ?(config = default_config) ~fib ~port_utilization ~choose_alts () =
  (* Per-epoch scratch: the previous ranked set and the buffer the
     chooser writes the new one into; outside the closure so the
     per-entry loop does not allocate. *)
  let olds = Array.make Fib.max_alts (-1) in
  let ranked = Array.make Fib.max_alts (-1) in
  Fib.iter fib (fun entry ->
      for i = 0 to Fib.max_alts - 1 do
        olds.(i) <- Fib.alt_at fib entry i
      done;
      Fib.set_alts fib entry ranked (choose_alts fib entry ranked);
      let changed = ref false in
      let survives = ref false in
      for i = 0 to Fib.max_alts - 1 do
        let a = Fib.alt_at fib entry i in
        if a <> olds.(i) then changed := true;
        if a >= 0 then
          for j = 0 to Fib.max_alts - 1 do
            if olds.(j) = a then survives := true
          done
      done;
      if !changed then begin
        Obs.incr c_alt_changed;
        if !survives then
          (* Per-slot demotion/promotion: at least one previously ramped
             alternative is still in the set, so the deflected share
             keeps flowing onto warm paths — hold the ramp and only note
             the rotation.  (Dropped slots stop receiving traffic
             immediately: the bucket→slot spread follows the live
             count.) *)
          Obs.incr c_slots_rotated
        else if Fib.deflect_buckets fib entry > 0 then begin
          (* A wholly fresh set is cold — possibly slower than the paths
             just dropped — so it must not inherit the deflected share
             accumulated against them.  Restart the ramp. *)
          Obs.incr c_buckets_reset;
          if Obs.trace_enabled () then
            Obs.event "alt_changed"
              [
                ("prefix", Obs.Str (Mifo_bgp.Prefix.to_string (Fib.prefix fib entry)));
                ("buckets_dropped", Obs.Int (Fib.deflect_buckets fib entry));
              ];
          Fib.set_deflect_buckets fib entry 0
        end
      end;
      let n = Fib.alt_count fib entry in
      if n = 0 then Fib.set_deflect_buckets fib entry 0
      else begin
        let util = port_utilization (Fib.out_port fib entry) in
        (* Headroom of the ranked set = the least-loaded live slot:
           ramping shifts whole buckets, and the spread deals each
           bucket to one slot, so there must be at least one slot that
           can absorb more. *)
        let alt_util =
          least_util port_utilization fib entry 1 n (port_utilization (Fib.alt_at fib entry 0))
        in
        Obs.observe h_util_out util;
        Obs.observe h_util_alt alt_util;
        (* Shift more flows onto the alternatives only while the set
           still has headroom; when every egress runs hot the split is
           where we want it (hold), and when the default drains we shift
           back.  Both ramps clamp to [0, Fib.buckets] and account only
           the buckets actually shifted — an entry already at an edge
           emits no spurious ramp count. *)
        let before = Fib.deflect_buckets fib entry in
        if util >= config.congest_threshold && alt_util < config.congest_threshold
        then begin
          let target = Stdlib.min Fib.buckets (before + config.ramp_up) in
          if target > before then begin
            Fib.set_deflect_buckets fib entry target;
            Obs.add c_ramp_up (target - before)
          end
        end
        else if util <= config.clear_threshold then begin
          let target = Stdlib.max 0 (before - config.ramp_down) in
          if target < before then begin
            Fib.set_deflect_buckets fib entry target;
            Obs.add c_ramp_down (before - target)
          end
        end
      end)
