(* Clocks, sample statistics and process figures for the benchmark.  Nothing
   here calls into the program under test. *)

(* Monotonic nanoseconds; the clock stub is [noalloc] and unboxed, so
   reading it does not disturb the allocation figures. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* A growable buffer of float samples.  [create] reserves room up front so
   that pushing inside a timed phase does not allocate. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create ?(capacity = 1024) () = { data = Array.make capacity 0.0; len = 0 }

  let push t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len

  let to_array t = Array.sub t.data 0 t.len

  let sum t =
    let s = ref 0.0 in
    for i = 0 to t.len - 1 do
      s := !s +. t.data.(i)
    done;
    !s
end

(* Nearest-rank quantile of an unsorted array; 0 when empty. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

(* Samples strictly above the [q]-quantile: the tail a percentile rests on. *)
let beyond xs q =
  let v = quantile xs q in
  Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 xs

(* Peak resident set of this process, from the kernel's own accounting. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec loop () =
        match input_line ic with
        | line ->
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
          else loop ()
        | exception End_of_file -> 0.0
      in
      loop ())

(* The host probe: a fixed integer-and-array kernel that allocates nothing.
   Its time moves with the host, not with the program, so a slow run of the
   program can be told apart from a slow host. *)
let probe_table = Array.make 4096 0

let probe_once () =
  let a = probe_table in
  Array.fill a 0 (Array.length a) 0;
  let x = ref 0x2545F491 in
  for i = 1 to 3_000_000 do
    x := (!x * 1103515245 + 12345) land 0x3FFFFFFF;
    let k = !x land 4095 in
    a.(k) <- a.(k) + i
  done;
  a.(!x land 4095)

let host_probe_ms ?(reps = 7) () =
  let times =
    Array.init reps (fun _ ->
        let t0 = now_ns () in
        ignore (Sys.opaque_identity (probe_once ()));
        float_of_int (now_ns () - t0) /. 1e6)
  in
  Ljqo_stats.Summary.median times
