let is_dir d = try Sys.is_directory d with Sys_error _ -> false

let rec ensure_dir dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (is_dir dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then ensure_dir parent;
    (* Another worker may create the directory between the check above and
       this mkdir; EEXIST with the directory in place is success. *)
    (try Sys.mkdir dir 0o755 with Sys_error _ when is_dir dir -> ());
    if not (is_dir dir) then
      raise (Sys_error (dir ^ ": cannot create directory"))
  end

let write_file dir filename contents =
  ensure_dir dir;
  let path = Filename.concat dir filename in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents);
  path
