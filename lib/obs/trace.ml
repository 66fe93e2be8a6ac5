(* JSONL event sink.

   [enabled] is a single atomic bool the instrumented layers read before
   building an event, so a disabled trace costs one load per potential
   event (and the instrumented sites are all off the simulator's
   per-event hot path anyway).  Emission serialises each event into a
   private buffer and writes the line under a mutex, so events from
   concurrent pool domains never interleave mid-line.

   Failure semantics: installing a sink registers one [at_exit] flush,
   so a run that dies of an uncaught exception still lands the tail of
   its trace — exactly the lines that matter most.  A write that raises
   (injected via {!Fault_hook} or a real [Sys_error] on a full disk /
   closed channel) drops that whole line, never a partial one, and is
   counted in the [trace.dropped] metric. *)

type field =
  | I of string * int
  | F of string * float
  | S of string * string
  | B of string * bool

exception Error of string

let sink : out_channel option ref = ref None
let sink_enabled = Atomic.make false
let sink_lock = Mutex.create ()
let m_dropped = Metrics.counter "trace.dropped"

let enabled () = Atomic.get sink_enabled

let stop () =
  Mutex.lock sink_lock;
  Atomic.set sink_enabled false;
  Option.iter close_out_noerr !sink;
  sink := None;
  Mutex.unlock sink_lock

let at_exit_registered = ref false

let to_file path =
  match open_out path with
  | oc ->
    stop ();
    Mutex.lock sink_lock;
    sink := Some oc;
    Atomic.set sink_enabled true;
    if not !at_exit_registered then begin
      at_exit_registered := true;
      (* flush the tail even when the process dies of an uncaught
         exception — at_exit runs on those too *)
      at_exit stop
    end;
    Mutex.unlock sink_lock
  | exception Sys_error msg -> raise (Error (Printf.sprintf "cannot open trace file: %s" msg))

let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_field buf = function
  | I (k, v) ->
    add_json_string buf k;
    Buffer.add_char buf ':';
    Buffer.add_string buf (string_of_int v)
  | F (k, v) ->
    add_json_string buf k;
    Buffer.add_char buf ':';
    (* JSON has no inf/nan literals; clamp to null for robustness. *)
    if Float.is_finite v then Buffer.add_string buf (Printf.sprintf "%.6g" v)
    else Buffer.add_string buf "null"
  | S (k, v) ->
    add_json_string buf k;
    Buffer.add_char buf ':';
    add_json_string buf v
  | B (k, v) ->
    add_json_string buf k;
    Buffer.add_char buf ':';
    Buffer.add_string buf (if v then "true" else "false")

let drop_event () = Metrics.incr m_dropped

let emit ev fields =
  if enabled () then begin
    match Fault_hook.hit ~site:"trace.write" ~key:ev with
    | exception _ -> drop_event ()
    | () ->
      let buf = Buffer.create 128 in
      Buffer.add_string buf "{\"ev\":";
      add_json_string buf ev;
      List.iter
        (fun f ->
          Buffer.add_char buf ',';
          add_field buf f)
        fields;
      Buffer.add_string buf "}\n";
      Mutex.lock sink_lock;
      let failed =
        match !sink with
        | Some oc -> ( try Buffer.output_buffer oc buf; false with Sys_error _ -> true)
        | None -> false
      in
      Mutex.unlock sink_lock;
      if failed then drop_event ()
  end

let now () = Unix.gettimeofday ()
