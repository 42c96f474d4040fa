from .main import main

raise SystemExit(main())
