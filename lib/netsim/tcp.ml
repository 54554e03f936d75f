module Sender = struct
  (* The float state lives in its own all-float record, stored flat, so
     the per-ACK updates are in-place stores rather than fresh boxed
     floats behind a write barrier. *)
  type floats = {
    mutable cwnd : float;  (* segments *)
    mutable ssthresh : float;
    mutable rto : float;
    mutable srtt : float;  (* smoothed RTT; negative = no sample yet *)
    mutable rttvar : float;
  }

  type t = {
    total : int;
    mutable snd_una : int;
    mutable snd_nxt : int;
    mutable dup : int;
    mutable gen : int;
    f : floats;
  }

  let initial_cwnd = 10.
  let initial_ssthresh = 64.
  let min_rto = 0.005
  let max_rto = 2.0

  (* Float min/max written out: the generic ones go through a
     polymorphic comparison on boxed arguments. *)
  let[@inline] fmin (a : float) b = if a <= b then a else b
  let[@inline] fmax (a : float) b = if a >= b then a else b

  let create ~total =
    if total <= 0 then invalid_arg "Tcp.Sender.create: total must be positive";
    {
      total;
      snd_una = 0;
      snd_nxt = 0;
      dup = 0;
      gen = 0;
      f =
        { cwnd = initial_cwnd; ssthresh = initial_ssthresh; rto = 0.05; srtt = -1.; rttvar = 0. };
    }

  let window t = int_of_float t.f.cwnd

  let next_seq_hot t =
    if t.snd_nxt >= t.total then -1
    else if t.snd_nxt - t.snd_una >= Stdlib.max 1 (window t) then -1
    else begin
      let seq = t.snd_nxt in
      t.snd_nxt <- t.snd_nxt + 1;
      seq
    end

  let next_to_send t =
    let seq = next_seq_hot t in
    if seq < 0 then None else Some seq

  let on_ack t ack =
    let f = t.f in
    if ack > t.snd_una then begin
      (* new data acknowledged *)
      t.snd_una <- ack;
      if t.snd_nxt < ack then t.snd_nxt <- ack;
      t.dup <- 0;
      if f.cwnd < f.ssthresh then f.cwnd <- f.cwnd +. 1. (* slow start *)
      else f.cwnd <- f.cwnd +. (1. /. f.cwnd);
      []
    end
    else if ack = t.snd_una && t.snd_una < t.snd_nxt then begin
      t.dup <- t.dup + 1;
      if t.dup = 3 then begin
        (* fast retransmit / simplified fast recovery *)
        f.ssthresh <- fmax 2. (f.cwnd /. 2.);
        f.cwnd <- f.ssthresh;
        t.dup <- 0;
        [ t.snd_una ]
      end
      else []
    end
    else []

  let on_timeout t ~gen =
    if gen <> t.gen || t.snd_una >= t.total || t.snd_una >= t.snd_nxt then []
    else begin
      let f = t.f in
      f.ssthresh <- fmax 2. (f.cwnd /. 2.);
      f.cwnd <- 1.;
      (* go-back-N: the lost head is retransmitted here, everything after
         it will be resent by the window pump as cwnd regrows *)
      t.snd_nxt <- t.snd_una + 1;
      t.dup <- 0;
      f.rto <- fmin max_rto (f.rto *. 2.);
      [ t.snd_una ]
    end

  (* Jacobson/Karels estimator; the simulator feeds samples for segments
     that were transmitted exactly once (Karn's rule). *)
  let observe_rtt t sample =
    let f = t.f in
    if sample > 0. then begin
      if f.srtt < 0. then begin
        f.srtt <- sample;
        f.rttvar <- sample /. 2.
      end
      else begin
        let err = sample -. f.srtt in
        f.srtt <- f.srtt +. (0.125 *. err);
        f.rttvar <- f.rttvar +. (0.25 *. (Float.abs err -. f.rttvar))
      end;
      f.rto <- fmin max_rto (fmax min_rto (f.srtt +. fmax (4. *. f.rttvar) 0.004))
    end

  let arm_timer t =
    t.gen <- t.gen + 1;
    t.gen

  let timer_needed t = t.snd_una < t.snd_nxt
  let rto t = t.f.rto
  let cwnd t = t.f.cwnd
  let ssthresh t = t.f.ssthresh
  let is_done t = t.snd_una >= t.total
  let snd_una t = t.snd_una
end

module Receiver = struct
  module Vec = Mifo_util.Vec

  (* Out-of-order segments as a seq-indexed bit set: seq ids are dense,
     so a growable bool table beats an (int, unit) Hashtbl on the
     per-segment hot path. *)
  type t = { mutable rcv_nxt : int; out_of_order : bool Vec.t }

  let create () = { rcv_nxt = 0; out_of_order = Vec.create () }

  let on_data t seq =
    if seq = t.rcv_nxt then begin
      t.rcv_nxt <- t.rcv_nxt + 1;
      while
        t.rcv_nxt < Vec.length t.out_of_order && Vec.get t.out_of_order t.rcv_nxt
      do
        Vec.set t.out_of_order t.rcv_nxt false;
        t.rcv_nxt <- t.rcv_nxt + 1
      done
    end
    else if seq > t.rcv_nxt then begin
      Vec.ensure t.out_of_order (seq + 1) false;
      Vec.set t.out_of_order seq true
    end;
    t.rcv_nxt

  let expected t = t.rcv_nxt
end
